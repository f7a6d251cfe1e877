package latchchar

// Acceptance tests for the observability layer at the library surface:
// the JSONL event stream of a real characterization must reconstruct the
// full span tree, the text summary's transient count must agree with the
// Result's own accounting, attaching a run must not perturb the numerics,
// the fine-grained wall-clock attribution must stay gated off when nothing
// asks for it, and shared counters must stay consistent under the
// concurrency of SweepCorners.

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"latchchar/internal/obs"
)

// smallOpts keeps the instrumented runs cheap: one trace direction, few
// points.
func smallOpts(run *obs.Run) Options {
	return Options{
		Points:         5,
		BothDirections: false,
		Obs:            run,
		Eval:           EvalConfig{Obs: run},
	}
}

func TestObsEventStreamReconstructsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("transient simulations in -short mode")
	}
	cell, err := CellByName("tspc")
	if err != nil {
		t.Fatal(err)
	}
	var jsonl, text bytes.Buffer
	run := NewObsRun()
	run.AddSink(NewJSONLSink(&jsonl))
	run.AddSink(NewTextSummarySink(&text))
	ev, err := NewEvaluator(cell, EvalConfig{Obs: run})
	if err != nil {
		t.Fatal(err)
	}
	calSteps := ev.Work.Steps // integrator work of the calibration transient
	res, err := CharacterizeWithEvaluator(ev, smallOpts(run))
	if err != nil {
		t.Fatal(err)
	}
	sum := run.Summary()
	if err := run.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	events, err := ReadObsJSONL(bytes.NewReader(jsonl.Bytes()))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if err := ValidateObsEvents(events); err != nil {
		t.Fatalf("event stream invalid: %v", err)
	}
	tree, err := ObsSpanTree(events)
	if err != nil {
		t.Fatalf("SpanTree: %v", err)
	}

	// The top level holds the calibration (run during evaluator
	// construction) and the characterization.
	var char *ObsSpanNode
	names := map[string]int{}
	for _, n := range tree {
		names[n.Name]++
		if n.Name == obs.SpanCharacterize {
			char = n
		}
	}
	if names[obs.SpanCalibrate] != 1 || names[obs.SpanCharacterize] != 1 {
		t.Fatalf("top-level spans = %v, want one calibrate and one characterize", names)
	}
	// characterize > seed and characterize > trace > step > corrector >
	// transient, matching the span taxonomy.
	kids := map[string]*ObsSpanNode{}
	for _, c := range char.Children {
		kids[c.Name] = c
	}
	if kids[obs.SpanSeed] == nil || kids[obs.SpanTrace] == nil {
		t.Fatalf("characterize children = %v, want seed and trace", keysOf(kids))
	}
	foundLeaf := false
	kids[obs.SpanTrace].Walk(func(n *ObsSpanNode) {
		if n.Name == obs.SpanTransient {
			foundLeaf = true
		}
	})
	if !foundLeaf {
		t.Fatal("no transient span nested under the trace")
	}
	stepCount := 0
	for _, c := range kids[obs.SpanTrace].Children {
		if c.Name == obs.SpanStep {
			stepCount++
			if len(c.Children) == 0 || c.Children[0].Name != obs.SpanCorrector {
				t.Fatalf("step span without corrector child: %+v", c)
			}
		}
	}
	// The seed point is corrected directly under the trace span; every
	// further contour point gets its own step span.
	if want := len(res.Contour.Points) - 1; stepCount != want {
		t.Fatalf("step spans = %d, want %d (points %d)", stepCount, want, len(res.Contour.Points))
	}

	// Counter agreement: telemetry sees every transient the Result counts,
	// plus the single calibration transient.
	total := sum.Counters[obs.CtrTransients] + sum.Counters[obs.CtrTransientsGrad]
	if int(total) != res.TotalSims()+1 {
		t.Fatalf("counted %d transients, Result reports %d (+1 calibration)", total, res.TotalSims())
	}
	wantLine := fmt.Sprintf("transients: %d (%d plain + %d gradient)",
		total, res.PlainSims+1, res.GradSims)
	if !strings.Contains(text.String(), wantLine) {
		t.Fatalf("text summary missing %q:\n%s", wantLine, text.String())
	}
	// The integrator stats must also agree with the Result's accounting
	// (the counters additionally see the calibration transient's steps).
	if got, want := sum.Counters[obs.CtrSteps], int64(res.Stats.Steps+calSteps); got != want {
		t.Fatalf("counted %d integrator steps, Result+calibration report %d", got, want)
	}
}

func keysOf(m map[string]*ObsSpanNode) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestObsAttachmentDoesNotPerturbResults(t *testing.T) {
	if testing.Short() {
		t.Skip("transient simulations in -short mode")
	}
	cell, err := CellByName("tspc")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Characterize(cell, smallOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	run := NewObsRun()
	traced, err := Characterize(cell, smallOpts(run))
	if err != nil {
		t.Fatal(err)
	}
	run.Close()
	if len(plain.Contour.Points) != len(traced.Contour.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(plain.Contour.Points), len(traced.Contour.Points))
	}
	for i := range plain.Contour.Points {
		a, b := plain.Contour.Points[i], traced.Contour.Points[i]
		if a.TauS != b.TauS || a.TauH != b.TauH {
			t.Fatalf("point %d differs with obs attached: (%g, %g) vs (%g, %g)",
				i, a.TauS, a.TauH, b.TauS, b.TauH)
		}
	}
	if plain.TotalSims() != traced.TotalSims() {
		t.Fatalf("simulation counts differ: %d vs %d", plain.TotalSims(), traced.TotalSims())
	}
}

func TestObsTimingGatedOffByDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("transient simulations in -short mode")
	}
	cell, err := CellByName("tspc")
	if err != nil {
		t.Fatal(err)
	}
	// Disabled observability: coarse wall-clock only, no fine-grained
	// attribution (its time.Now calls stay off the hot path).
	res, err := Characterize(cell, smallOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Wall <= 0 {
		t.Fatal("Stats.Wall not measured")
	}
	if res.Stats.LU != 0 || res.Stats.DeviceEval != 0 || res.Stats.Sens != 0 {
		t.Fatalf("fine-grained timings measured without observability: LU=%v dev=%v sens=%v",
			res.Stats.LU, res.Stats.DeviceEval, res.Stats.Sens)
	}
	// Enabled observability turns the attribution on.
	run := NewObsRun()
	res, err = Characterize(cell, smallOpts(run))
	run.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.LU <= 0 || res.Stats.DeviceEval <= 0 {
		t.Fatalf("fine-grained timings missing with observability: LU=%v dev=%v",
			res.Stats.LU, res.Stats.DeviceEval)
	}
}

// TestObsLayerSplitWithinWall characterizes tspc under an obs run, scalar
// and with 4-lane blocks: the sampled split gives every transient layer —
// device evaluation, LU and the sensitivity solves — a positive share, and
// the three add up to no more than the transients' wall time.
func TestObsLayerSplitWithinWall(t *testing.T) {
	if testing.Short() {
		t.Skip("transient simulations in -short mode")
	}
	cell, err := CellByName("tspc")
	if err != nil {
		t.Fatal(err)
	}
	for _, block := range []int{0, 4} {
		run := NewObsRun()
		opts := smallOpts(run)
		opts.Block = block
		res, err := Characterize(cell, opts)
		run.Close()
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if st.LU <= 0 || st.DeviceEval <= 0 || st.Sens <= 0 || st.LU+st.DeviceEval+st.Sens > st.Wall {
			t.Errorf("block %d: LU %v, device %v, sensitivities %v, wall %v: want each positive and their sum within wall",
				block, st.LU, st.DeviceEval, st.Sens, st.Wall)
		}
	}
}

func TestObsProgressDeliversFinalReport(t *testing.T) {
	if testing.Short() {
		t.Skip("transient simulations in -short mode")
	}
	cell, err := CellByName("tspc")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var reports []ObsProgress
	run := NewObsRun(WithObsProgress(func(p ObsProgress) {
		mu.Lock()
		reports = append(reports, p)
		mu.Unlock()
	}, time.Nanosecond))
	if _, err := Characterize(cell, smallOpts(run)); err != nil {
		t.Fatal(err)
	}
	run.Close()
	if len(reports) == 0 {
		t.Fatal("no progress reports delivered")
	}
	last := reports[len(reports)-1]
	if last.Phase != obs.SpanTrace {
		t.Fatalf("last progress phase = %q, want %q", last.Phase, obs.SpanTrace)
	}
	for _, p := range reports {
		if p.Done < 1 || p.Done > p.Total {
			t.Fatalf("progress out of range: %+v", p)
		}
		if p.TauS <= 0 || p.TauH <= 0 {
			t.Fatalf("progress without a contour point: %+v", p)
		}
	}
}

func TestSweepCornersSharedObsCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("transient simulations in -short mode")
	}
	mk := func(p Process) *Cell { return TSPCCell(p, DefaultTiming()) }
	corners := StandardCorners()[:3]
	run := NewObsRun()
	opts := smallOpts(run)
	results := SweepCorners(mk, DefaultProcess(), corners, opts)
	sum := run.Summary()
	run.Close()
	wantPoints := 0
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("corner %s: %v", r.Corner, r.Err)
		}
		wantPoints += len(r.Result.Contour.Points)
	}
	if got := sum.Counters[obs.CtrPoints]; int(got) != wantPoints {
		t.Fatalf("counted %d contour points across corners, results hold %d", got, wantPoints)
	}
	if got := sum.Phase(obs.SpanCorner).Count; int(got) != len(corners) {
		t.Fatalf("corner spans = %d, want %d", got, len(corners))
	}
	if got := sum.Phase(obs.SpanCharacterize).Count; int(got) != len(corners) {
		t.Fatalf("characterize spans = %d, want %d", got, len(corners))
	}
}

// TestSurfacesCountNoContourPoints: a brute-force surface samples a grid and
// traces no contour, so its run counts no contour points, for the
// output-level surface and the delay surface alike. The grid's cost stays
// on the result's Sims (N²).
func TestSurfacesCountNoContourPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("transient simulations in -short mode")
	}
	cell, err := CellByName("tspc")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		sweep func(SurfaceOptions) (int, error)
	}{
		{"BruteForce", func(o SurfaceOptions) (int, error) {
			res, err := BruteForce(cell, o)
			if err != nil {
				return 0, err
			}
			return res.Sims, nil
		}},
		{"BruteForceDelay", func(o SurfaceOptions) (int, error) {
			res, err := BruteForceDelay(cell, o)
			if err != nil {
				return 0, err
			}
			return res.Sims, nil
		}},
	} {
		run := NewObsRun()
		sims, err := tc.sweep(SurfaceOptions{N: 6, Obs: run})
		sum := run.Summary()
		run.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if sims != 36 {
			t.Errorf("%s: Sims = %d, want 36", tc.name, sims)
		}
		if got := sum.Counters[obs.CtrPoints]; got != 0 {
			t.Errorf("%s: counted %d contour points for a surface that traces none", tc.name, got)
		}
		if got := sum.Phase(obs.SpanSurface).Count; got != 1 {
			t.Errorf("%s: surface spans = %d, want 1", tc.name, got)
		}
	}
}
