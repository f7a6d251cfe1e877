package latchchar

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
)

// lineContour builds a synthetic nominal contour along the anti-diagonal
// with unit-normal gradients pointing toward larger skews.
func lineContour(n int) *Contour {
	ct := &Contour{}
	for j := 0; j < n; j++ {
		t := float64(j) / float64(n-1)
		ct.Points = append(ct.Points, ContourPoint{
			TauS: 100e-12 + 200e-12*t,
			TauH: 300e-12 - 200e-12*t,
			DhdS: math.Sqrt2 / 2, DhdH: math.Sqrt2 / 2,
		})
	}
	return ct
}

// shifted returns a sample whose contour is the nominal displaced by d along
// each probe normal.
func shifted(nom *Contour, d float64) MCSample {
	ct := &Contour{}
	for _, p := range nom.Points {
		ct.Points = append(ct.Points, ContourPoint{
			TauS: p.TauS + d*math.Sqrt2/2,
			TauH: p.TauH + d*math.Sqrt2/2,
		})
	}
	return MCSample{Result: &Result{Contour: ct}}
}

func TestSigmaFromSamplesKnownDeltas(t *testing.T) {
	nom := lineContour(5)
	samples := []MCSample{shifted(nom, 1e-12), shifted(nom, 3e-12)}
	sig, err := SigmaFromSamples(nom, samples, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sig.Samples != 2 || len(sig.Delta) != 5 {
		t.Fatalf("samples=%d probes=%d", sig.Samples, len(sig.Delta))
	}
	for j, st := range sig.Delta {
		if math.Abs(st.Mean-2e-12) > 1e-18 || math.Abs(st.Std-1e-12) > 1e-18 {
			t.Errorf("probe %d: stats %+v, want mean 2ps std 1ps", j, st)
		}
	}
	// Inner = nominal + (mean + level·std)·n = +4 ps along the normal.
	wantIn := 4e-12
	for j, p := range sig.Inner.Points {
		d := math.Hypot(p.TauS-nom.Points[j].TauS, p.TauH-nom.Points[j].TauH)
		if math.Abs(d-wantIn) > 1e-18 {
			t.Errorf("inner probe %d displaced %v, want %v", j, d, wantIn)
		}
		// Restrictive direction: both skews must grow.
		if p.TauS <= nom.Points[j].TauS || p.TauH <= nom.Points[j].TauH {
			t.Errorf("inner probe %d not in the restrictive direction", j)
		}
	}
	// Outer = nominal + (mean − level·std)·n = 0: coincides with nominal.
	for j, p := range sig.Outer.Points {
		if d := math.Hypot(p.TauS-nom.Points[j].TauS, p.TauH-nom.Points[j].TauH); d > 1e-18 {
			t.Errorf("outer probe %d displaced %v, want 0", j, d)
		}
	}
}

func TestSigmaFromSamplesSkipsUnusable(t *testing.T) {
	nom := lineContour(4)
	// A probe-count-matched contour is measured index-wise; a longer one is
	// measured by nearest-point projection; a single point has no segment to
	// project onto and is unusable.
	dense := shifted(lineContour(9), 2e-12)
	point := &Contour{Points: nom.Points[:1]}
	samples := []MCSample{
		shifted(nom, 1e-12),
		{Err: errFake{}},                  // failed
		{Result: &Result{Contour: point}}, // no polyline segment
		{Result: &Result{}},               // no contour
		dense,
	}
	sig, err := SigmaFromSamples(nom, samples, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sig.Samples != 2 {
		t.Errorf("usable samples = %d, want 2", sig.Samples)
	}
	// The projected sample must contribute the same 2 ps delta at interior
	// probes as an index-aligned one would.
	for j, st := range sig.Delta {
		if math.Abs(st.Mean-1.5e-12) > 1e-15 {
			t.Errorf("probe %d: mean %v, want 1.5ps", j, st.Mean)
		}
	}
}

func TestSigmaFromSamplesErrors(t *testing.T) {
	nom := lineContour(4)
	if _, err := SigmaFromSamples(nil, nil, 3); err == nil {
		t.Error("nil nominal accepted")
	}
	_, err := SigmaFromSamples(nom, []MCSample{shifted(nom, 1e-12)}, 3)
	if !errors.Is(err, ErrNoSamples) {
		t.Errorf("single-sample estimate: err = %v, want ErrNoSamples", err)
	}
}

func TestExportLibertySigma(t *testing.T) {
	nom := lineContour(4)
	sig, err := SigmaFromSamples(nom, []MCSample{shifted(nom, 1e-12), shifted(nom, 3e-12)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	mc := &MCResult{Nominal: &Result{Contour: nom}, Sigma: sig}
	var buf bytes.Buffer
	if err := ExportLibertySigma(&buf, "tspc", mc, LibertyOptions{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"cell (tspc)", "statistical corner: 2sigma", "latchchar_interdependent_pairs"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in sigma liberty fragment", want)
		}
	}
	// The emitted pair table must be the inner (restrictive) band edge, not
	// the nominal contour: every inner point sits 4 ps further out.
	if !strings.Contains(out, "statistical corner") {
		t.Error("corner label missing")
	}
	if err := ExportLibertySigma(&buf, "tspc", &MCResult{}, LibertyOptions{}); err == nil {
		t.Error("missing sigma estimate accepted")
	}
}

func TestProbeNormalsFallsBackToTangent(t *testing.T) {
	// Degenerate gradients: the rotated-tangent fallback must still point
	// toward larger skews.
	pts := []ContourPoint{
		{TauS: 100e-12, TauH: 300e-12},
		{TauS: 200e-12, TauH: 200e-12},
		{TauS: 300e-12, TauH: 100e-12},
	}
	ns, nh := probeNormals(pts)
	for j := range pts {
		if math.Abs(math.Hypot(ns[j], nh[j])-1) > 1e-12 {
			t.Errorf("probe %d: normal not unit length", j)
		}
		if ns[j]+nh[j] <= 0 {
			t.Errorf("probe %d: normal (%v, %v) not restrictive-oriented", j, ns[j], nh[j])
		}
	}
}

// The acceptance gate of the variance-aware flow: on a TSPC deck the warm
// probe path must match the brute-force percentile bands within tolerance
// while spending ≥5× fewer transients per sample.
func TestMonteCarloContoursMatchesBruteForce(t *testing.T) {
	if testing.Short() {
		t.Skip("many characterizations")
	}
	tm := DefaultTiming()
	mk := func(p Process) *Cell { return TSPCCell(p, tm) }
	opts := MCOptions{
		Samples: 6,
		Seed:    3,
		Sampler: SamplerLHS,
		Probes:  8,
		Characterize: Options{
			Points:         40, // the paper's contour resolution
			BothDirections: true,
		},
	}
	va, err := MonteCarloContours(mk, DefaultProcess(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if va.Sigma == nil || len(va.Sigma.Inner.Points) < 6 {
		t.Fatalf("sigma contours missing or sparse: %+v", va.Sigma)
	}
	if va.WarmSamples == 0 {
		t.Fatal("no sample used the warm probe path")
	}

	// Brute force: the identical sample set (MCDraws is pure), each sample
	// fully characterized, with a dense resample so the nearest-point
	// estimator sees a smooth reference polyline.
	naiveOpts := opts
	naiveOpts.Characterize.Resample = 64
	naive := MonteCarlo(mk, DefaultProcess(), naiveOpts)
	var naiveSims int
	for _, s := range naive {
		if s.Err != nil {
			t.Fatalf("naive sample %d: %v", s.Index, s.Err)
		}
		naiveSims += s.Result.TotalSims()
	}
	ref, err := SigmaFromSamples(va.Nominal.Contour, naive, opts.SigmaLevel)
	if err != nil {
		t.Fatal(err)
	}

	// Cost gate: ≥5× fewer transients per sample on the warm path.
	warmSims := va.TotalSims - va.NominalSims
	ratio := float64(naiveSims) / float64(warmSims)
	t.Logf("per-sample sims: naive %d, variance-aware %d (%.1fx); saved %d",
		naiveSims, warmSims, ratio, va.SimsSaved)
	if ratio < 5 {
		t.Errorf("per-sample simulation ratio %.2fx below the 5x gate", ratio)
	}
	if va.SimsSaved <= 0 {
		t.Error("mc_sims_saved accounting is zero")
	}

	// Accuracy gate: band edges agree within 2 ps at every probe both
	// estimates cover (the stated tolerance; band half-widths are tens of
	// ps). Probes are matched by nominal coordinates since either estimate
	// may drop arc-end probes.
	const tol = 2e-12
	type bandPt struct{ in, out ContourPoint }
	vaBands := map[[2]float64]bandPt{}
	for j, p := range va.Sigma.Probes {
		vaBands[[2]float64{p.TauS, p.TauH}] = bandPt{va.Sigma.Inner.Points[j], va.Sigma.Outer.Points[j]}
	}
	shared := 0
	for j, p := range ref.Probes {
		b, ok := vaBands[[2]float64{p.TauS, p.TauH}]
		if !ok {
			continue
		}
		shared++
		din := math.Hypot(b.in.TauS-ref.Inner.Points[j].TauS, b.in.TauH-ref.Inner.Points[j].TauH)
		dout := math.Hypot(b.out.TauS-ref.Outer.Points[j].TauS, b.out.TauH-ref.Outer.Points[j].TauH)
		t.Logf("probe %d: band deviation inner %.3gps outer %.3gps", j, din*1e12, dout*1e12)
		if din > tol || dout > tol {
			t.Errorf("probe %d: band deviation inner %v outer %v exceeds %v", j, din, dout, tol)
		}
	}
	// The dense reference drops probes near the sample arcs' open ends (the
	// end-clamp skip), so a margin of the 8 probes may be reference-only.
	if shared < 4 {
		t.Errorf("only %d probes shared between the estimates", shared)
	}
}

// Canceling a Monte-Carlo run while its samples solve their warm probes
// ends each canceled sample with an error wrapping both ErrCanceled and
// context.Canceled and a Result holding an empty contour and the sims the
// sample spent (a canceled probe solve returns no contour, which a sample
// once dereferenced). The context is canceled from the second mk call,
// the first sample's, after the nominal has been characterized.
func TestMonteCarloCancelDuringProbes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tm := DefaultTiming()
	var calls atomic.Int32
	mk := func(p Process) *Cell {
		if calls.Add(1) == 2 {
			cancel()
		}
		return TSPCCell(p, tm)
	}
	res, err := MonteCarloContoursCtx(ctx, mk, DefaultProcess(), MCOptions{
		Samples:      4,
		Seed:         1,
		Characterize: Options{Points: 10, Block: 4},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Samples) != 4 {
		t.Fatalf("canceled run returned %+v", res)
	}
	sims := res.NominalSims
	for _, s := range res.Samples {
		if !errors.Is(s.Err, ErrCanceled) || !errors.Is(s.Err, context.Canceled) {
			t.Errorf("sample %d: err = %v, want ErrCanceled and context.Canceled", s.Index, s.Err)
		}
		if s.Result == nil || s.Result.Contour == nil {
			t.Errorf("sample %d: no result or contour", s.Index)
			continue
		}
		if n := len(s.Result.Contour.Points); n != 0 || s.WarmStarted {
			t.Errorf("sample %d: %d contour points, warm %v; want an empty, unwarmed contour", s.Index, n, s.WarmStarted)
		}
		sims += s.Result.TotalSims()
	}
	if res.TotalSims != sims {
		t.Errorf("TotalSims = %d, want nominal plus samples = %d", res.TotalSims, sims)
	}
}
