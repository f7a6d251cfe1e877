package stf

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"latchchar/internal/num"
	"latchchar/internal/obs"
	"latchchar/internal/registers"
	"latchchar/internal/transient"
)

// evaluators are expensive to build (DC + calibration transient), so the
// tests share one per cell.
var evalCache = map[string]*Evaluator{}

func evaluatorFor(t *testing.T, cellName string) *Evaluator {
	t.Helper()
	if e, ok := evalCache[cellName]; ok {
		return e
	}
	cell, err := registers.ByName(cellName)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := cell.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(inst, Config{})
	if err != nil {
		t.Fatal(err)
	}
	evalCache[cellName] = e
	return e
}

func TestCalibrationTSPC(t *testing.T) {
	e := evaluatorFor(t, "tspc")
	cal := e.Calibration()
	if !cal.Rising {
		t.Error("TSPC output should rise")
	}
	if cal.R != 1.25 {
		t.Errorf("r = %v, want 1.25 (50%% of 2.5 V)", cal.R)
	}
	// Characteristic delay should land in the paper's few-hundred-ps range.
	if cal.CharDelay < 100e-12 || cal.CharDelay > 600e-12 {
		t.Errorf("characteristic delay = %v ps", cal.CharDelay*1e12)
	}
	wantTf := 11.05e-9 + 1.1*cal.CharDelay
	if !num.ApproxEqual(cal.Tf, wantTf, 1e-12, 1e-15) {
		t.Errorf("tf = %v, want %v", cal.Tf, wantTf)
	}
	if !(cal.TC > 11.05e-9 && cal.TC < 12e-9) {
		t.Errorf("tc = %v", cal.TC)
	}
}

func TestCalibrationC2MOS(t *testing.T) {
	e := evaluatorFor(t, "c2mos")
	cal := e.Calibration()
	if cal.Rising {
		t.Error("C2MOS output should fall")
	}
	if !num.ApproxEqual(cal.R, 0.25, 1e-12, 0) {
		t.Errorf("r = %v, want 0.25 (90%% criterion on a 2.5 V fall)", cal.R)
	}
	if cal.CharDelay < 100e-12 || cal.CharDelay > 800e-12 {
		t.Errorf("characteristic delay = %v ps", cal.CharDelay*1e12)
	}
}

// TestHSignStructureTSPC verifies the characterization landscape: h > 0
// (output ahead of the degraded crossing) with generous skews, h < 0 with a
// starved setup or hold skew. This is the structure Figs. 1(a)/3(a) depict.
func TestHSignStructureTSPC(t *testing.T) {
	e := evaluatorFor(t, "tspc")
	h, err := e.Eval(600e-12, 500e-12)
	if err != nil {
		t.Fatal(err)
	}
	if h <= 0 {
		t.Errorf("generous skews: h = %v, want > 0", h)
	}
	h, err = e.Eval(30e-12, 500e-12)
	if err != nil {
		t.Fatal(err)
	}
	if h >= 0 {
		t.Errorf("starved setup: h = %v, want < 0", h)
	}
	h, err = e.Eval(600e-12, 10e-12)
	if err != nil {
		t.Fatal(err)
	}
	if h >= 0 {
		t.Errorf("starved hold: h = %v, want < 0", h)
	}
}

func TestHSignStructureC2MOS(t *testing.T) {
	e := evaluatorFor(t, "c2mos")
	// Falling output: h = out − r is negative when properly latched.
	h, err := e.Eval(600e-12, 500e-12)
	if err != nil {
		t.Fatal(err)
	}
	if h >= 0 {
		t.Errorf("generous skews: h = %v, want < 0", h)
	}
	h, err = e.Eval(30e-12, 500e-12)
	if err != nil {
		t.Fatal(err)
	}
	if h <= 0 {
		t.Errorf("starved setup: h = %v, want > 0", h)
	}
}

// TestGradientMatchesFiniteDifference is the end-to-end validation of the
// sensitivity machinery on the real register: ∂h/∂τ from the propagated
// mₛ/m_h must match finite differences of h.
func TestGradientMatchesFiniteDifference(t *testing.T) {
	for _, cellName := range []string{"tspc", "c2mos"} {
		e := evaluatorFor(t, cellName)
		tauS, tauH := 300e-12, 200e-12
		_, dhdS, dhdH, err := e.EvalGrad(tauS, tauH)
		if err != nil {
			t.Fatalf("%s: %v", cellName, err)
		}
		const d = 1e-13 // 0.1 ps
		hp, err := e.Eval(tauS+d, tauH)
		if err != nil {
			t.Fatal(err)
		}
		hm, err := e.Eval(tauS-d, tauH)
		if err != nil {
			t.Fatal(err)
		}
		fdS := (hp - hm) / (2 * d)
		if !num.ApproxEqual(fdS, dhdS, 5e-2, 1e6) {
			t.Errorf("%s: dh/dτs = %v, fd = %v", cellName, dhdS, fdS)
		}
		hp, err = e.Eval(tauS, tauH+d)
		if err != nil {
			t.Fatal(err)
		}
		hm, err = e.Eval(tauS, tauH-d)
		if err != nil {
			t.Fatal(err)
		}
		fdH := (hp - hm) / (2 * d)
		if !num.ApproxEqual(fdH, dhdH, 5e-2, 1e6) {
			t.Errorf("%s: dh/dτh = %v, fd = %v", cellName, dhdH, fdH)
		}
	}
}

func TestHContinuityInSkews(t *testing.T) {
	// h must vary smoothly with τs (fixed grid ⇒ no staircase artifacts).
	e := evaluatorFor(t, "tspc")
	prevH := math.NaN()
	prevS := 0.0
	for _, s := range []float64{240e-12, 242e-12, 244e-12, 246e-12, 248e-12, 250e-12} {
		h, err := e.Eval(s, 300e-12)
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsNaN(prevH) {
			slope := (h - prevH) / (s - prevS)
			// The gradient scale is ~2e9 V/s; anything wildly above means a
			// discontinuity.
			if math.Abs(slope) > 5e10 {
				t.Errorf("h jumps between τs=%v and %v: slope %v", prevS, s, slope)
			}
		}
		prevH, prevS = h, s
	}
}

func TestCountersAndReset(t *testing.T) {
	e := evaluatorFor(t, "tgate")
	e.ResetCounters()
	if _, err := e.Eval(400e-12, 300e-12); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := e.EvalGrad(400e-12, 300e-12); err != nil {
		t.Fatal(err)
	}
	if e.PlainEvals != 1 || e.GradEvals != 1 {
		t.Errorf("counters: plain=%d grad=%d", e.PlainEvals, e.GradEvals)
	}
	if e.Work.Steps == 0 || e.Work.NewtonIters == 0 {
		t.Errorf("work stats empty: %+v", e.Work)
	}
	e.ResetCounters()
	if e.PlainEvals != 0 || e.GradEvals != 0 || e.Work.Steps != 0 {
		t.Error("ResetCounters incomplete")
	}
}

func TestWaveformsAtTfRunTheMeasurementTransient(t *testing.T) {
	e := evaluatorFor(t, "tspc")
	inst := e.Instance()
	plain := e.PlainEvals
	res, err := e.Waveforms(400e-12, 300e-12, e.Calibration().Tf, inst.Out, inst.Supply)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Times, e.Grid().Points()) {
		t.Fatalf("grid ending at tf: %d points, measurement grid has %d", len(res.Times), e.Grid().Len())
	}
	if len(res.Probes) != 2 || len(res.Probes[0]) != len(res.Times) || len(res.Probes[1]) != len(res.Times) {
		t.Fatalf("probe shape: %d probes for %d times", len(res.Probes), len(res.Times))
	}
	h, err := e.Eval(400e-12, 300e-12)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Probes[0][len(res.Times)-1] - e.Calibration().R; got != h {
		t.Errorf("output at tf gives h = %v, Eval gives %v", got, h)
	}
	if e.PlainEvals != plain+2 {
		t.Errorf("PlainEvals grew by %d, want 2", e.PlainEvals-plain)
	}
}

func TestOutputUntilExtendsPastTf(t *testing.T) {
	e := evaluatorFor(t, "tspc")
	tEnd := e.Calibration().Tf + 1e-9
	times, out, err := e.OutputUntil(400e-12, 300e-12, tEnd)
	if err != nil {
		t.Fatal(err)
	}
	if times[len(times)-1] != tEnd {
		t.Errorf("end = %v, want %v", times[len(times)-1], tEnd)
	}
	if len(out) != len(times) {
		t.Error("shape mismatch")
	}
	if _, _, err := e.OutputUntil(1e-12, 1e-12, -1); err == nil {
		t.Error("negative end accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Degrade != 0.10 || c.FineStep != 5e-12 || c.CoarseStep != 100e-12 {
		t.Errorf("defaults: %+v", c)
	}
	c = Config{Degrade: 0.2, Method: transient.TRAP}.withDefaults()
	if c.Degrade != 0.2 || c.Method != transient.TRAP {
		t.Errorf("overrides clobbered: %+v", c)
	}
}

func TestEvaluatorRejectsOversizedSkewDomain(t *testing.T) {
	cell, err := registers.ByName("tspc")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := cell.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Fine window would start before t=0.
	if _, err := NewEvaluator(inst, Config{MaxSetupSkew: 12e-9}); err == nil {
		t.Error("expected error for oversized setup-skew domain")
	}
}

func TestClockToQ(t *testing.T) {
	e := evaluatorFor(t, "tspc")
	cal := e.Calibration()
	// Generous skews reproduce the characteristic delay.
	d, ok, err := e.ClockToQ(800e-12, 700e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("failed to latch with generous skews")
	}
	if !num.ApproxEqual(d, cal.CharDelay, 0.02, 1e-12) {
		t.Errorf("delay %v ps, characteristic %v ps", d*1e12, cal.CharDelay*1e12)
	}
	// Starved hold: no latch.
	_, ok, err = e.ClockToQ(600e-12, 5e-12)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("starved hold should fail to latch")
	}
}

// TestCrossingStopHonorsTMin runs the stopped crossing measurement at a
// latching skew pair with tMin at the edge, at the crossing and just after
// it, inside the interval that completes it. For every tMin the crossing and
// ok must equal num.CrossingTime's on OutputUntil's waveform bit for bit,
// and the run must take exactly the steps up to the interval CrossingTime
// reports, or the whole window when it finds none: a crossing interpolated
// before tMin does not stop the run.
func TestCrossingStopHonorsTMin(t *testing.T) {
	e := evaluatorFor(t, "tspc")
	cal := e.Calibration()
	const tauS, tauH = 800e-12, 700e-12
	edge := e.inst.Edge50
	tEnd := edge + e.cfg.PostWindow
	times, out, err := e.OutputUntil(tauS, tauH, tEnd)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := e.gridTo(tEnd)
	if err != nil {
		t.Fatal(err)
	}
	tc, ok := num.CrossingTime(times, out, cal.R, +1, edge)
	if !ok || !cal.Rising {
		t.Fatalf("TSPC output: crossing %v (ok %v), rising %v; want a rising crossing", tc, ok, cal.Rising)
	}
	for _, tMin := range []float64{edge, tc, math.Nextafter(tc, math.Inf(1))} {
		want, wantOK := num.CrossingTime(times, out, cal.R, +1, tMin)
		steps := 1
		for steps < len(times)-1 {
			if _, ok := num.CrossingTime(times[:steps+1], out[:steps+1], cal.R, +1, tMin); ok {
				break
			}
			steps++
		}
		e.inst.Data.SetSkews(tauS, tauH)
		before := e.Work.Steps
		got, gotOK, err := e.firstCrossing(nil, grid, cal.R, +1, tMin)
		if err != nil {
			t.Fatal(err)
		}
		if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("tMin %v: crossing %v (ok %v), CrossingTime gives %v (ok %v)", tMin, got, gotOK, want, wantOK)
		}
		if ran := e.Work.Steps - before; ran != steps {
			t.Errorf("tMin %v: ran %d steps, want %d", tMin, ran, steps)
		}
	}
}

// TestUncrossedOutputRunsTheWholeWindow: a crossing measurement stops at the
// crossing, so one whose output never crosses runs its whole window. A
// starved-hold ClockToQ accounts for every step to PostWindow past the edge,
// integrated or resumed from the rest trail, and returns ok = false; a
// calibration whose level the output cannot reach integrates its whole grid
// and fails with the calibration error.
func TestUncrossedOutputRunsTheWholeWindow(t *testing.T) {
	e := evaluatorFor(t, "tspc")
	grid, err := e.gridTo(e.inst.Edge50 + e.cfg.PostWindow)
	if err != nil {
		t.Fatal(err)
	}
	before := e.Work
	if _, ok, err := e.ClockToQ(600e-12, 5e-12); err != nil || ok {
		t.Fatalf("starved hold: ok = %v, err = %v; want a failed latch", ok, err)
	}
	if got := (e.Work.Steps - before.Steps) + (e.Work.ResumedSteps - before.ResumedSteps); got != grid.Len()-1 {
		t.Errorf("ClockToQ ran and resumed %d steps without a crossing, want the window's %d", got, grid.Len()-1)
	}

	cell, err := registers.ByName("tspc")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := cell.Build()
	if err != nil {
		t.Fatal(err)
	}
	inst.CrossFrac = 1.5 // r = 1.5·VDD, above anything the rising output reaches
	run := obs.New()
	if _, err := NewEvaluator(inst, Config{Obs: run}); err == nil || !strings.Contains(err.Error(), "never crossed") {
		t.Fatalf("err = %v, want the calibration's never-crossed error", err)
	}
	c := Config{}.withDefaults()
	calGrid, err := transient.TwoPhaseGrid(0, inst.Data.SupportStart(c.CalSkew)-c.FineMargin, inst.Edge50+c.PostWindow, c.CoarseStep, c.FineStep)
	if err != nil {
		t.Fatal(err)
	}
	if got := run.Counter(obs.CtrSteps); got != int64(calGrid.Len()-1) {
		t.Errorf("calibration ran %d steps without a crossing, want the grid's %d", got, calGrid.Len()-1)
	}
}

// TestEvaluatorDeterministic requires an evaluation to depend on its skews
// alone: repeating it after scalar and block evaluations at other skews
// reproduces it bit for bit.
func TestEvaluatorDeterministic(t *testing.T) {
	e := evaluatorFor(t, "tspc")
	elsewhere := func() {
		t.Helper()
		if _, err := e.Eval(150e-12, 90e-12); err != nil {
			t.Fatal(err)
		}
		if _, err := e.EvalBlock([]float64{150e-12, 420e-12, 600e-12}, []float64{90e-12, 250e-12, 40e-12}); err != nil {
			t.Fatal(err)
		}
		if _, _, _, _, err := e.EvalGradBlock([]float64{200e-12, 500e-12}, []float64{60e-12, 300e-12}); err != nil {
			t.Fatal(err)
		}
	}
	h1, err := e.Eval(313e-12, 171e-12)
	if err != nil {
		t.Fatal(err)
	}
	elsewhere()
	h2, err := e.Eval(313e-12, 171e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(h1) != math.Float64bits(h2) {
		t.Errorf("non-deterministic: %v vs %v", h1, h2)
	}
	g1a, g1b, g1c, err := e.EvalGrad(313e-12, 171e-12)
	if err != nil {
		t.Fatal(err)
	}
	elsewhere()
	g2a, g2b, g2c, err := e.EvalGrad(313e-12, 171e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(g1a) != math.Float64bits(g2a) ||
		math.Float64bits(g1b) != math.Float64bits(g2b) ||
		math.Float64bits(g1c) != math.Float64bits(g2c) {
		t.Errorf("gradient evaluation non-deterministic: (%v %v %v) vs (%v %v %v)",
			g1a, g1b, g1c, g2a, g2b, g2c)
	}
}

// TestBlockPeelOffIsTheLaneResult starves every tspc lane of Newton
// iterations (two per step fail at the clock edge near 1.1 ns): each lane
// of EvalGradBlock must report its own Newton failure, naming the lane, as
// EvalGrad does at its skews, and EvalBlock, Eval at each pair in turn, must
// stop at lane 0 with Eval's error, naming the lane. A failed transient
// counts as one, with the work it did, whether it ran alone or as a block's
// lane: every step and Newton iteration the evaluator published is in its
// Work. The failures come before the rest trail's first state, so no run
// saves one: Eval fails the same way every time, and no run ever resumes.
func TestBlockPeelOffIsTheLaneResult(t *testing.T) {
	cell, err := registers.ByName("tspc")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := cell.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluatorWithCalibration(inst, Config{MaxNewtonIter: 2}, evaluatorFor(t, "tspc").Calibration())
	if err != nil {
		t.Fatal(err)
	}
	run := obs.New()
	e.SetObs(run)
	tauS := []float64{300e-12, 350e-12, 400e-12, 450e-12}
	tauH := []float64{200e-12, 220e-12, 240e-12, 260e-12}
	k := len(tauS)
	_, errBlock := e.EvalBlock(tauS, tauH)
	_, _, _, errs, err := e.EvalGradBlock(tauS, tauH)
	if err != nil {
		t.Fatal(err)
	}
	for i, lerr := range errs {
		if !errors.Is(lerr, transient.ErrNewtonFailure) || !strings.Contains(lerr.Error(), fmt.Sprintf("lane %d", i)) {
			t.Errorf("EvalGradBlock lane %d: err = %v, want its Newton failure", i, lerr)
		}
	}
	published := func(what string, plain, grad int) {
		t.Helper()
		if e.PlainEvals != plain || e.GradEvals != grad {
			t.Errorf("%s: counted %d plain and %d gradient transients, want %d and %d", what, e.PlainEvals, e.GradEvals, plain, grad)
		}
		if steps, iters := run.Counter(obs.CtrSteps), run.Counter(obs.CtrNewtonIters); steps != int64(e.Work.Steps) || iters != int64(e.Work.NewtonIters) {
			t.Errorf("%s: published %d steps and %d Newton iterations, the evaluator's work holds %d and %d",
				what, steps, iters, e.Work.Steps, e.Work.NewtonIters)
		}
		if e.Work.Steps == 0 {
			t.Errorf("%s: the failed transients did no work", what)
		}
	}
	published(fmt.Sprintf("EvalBlock and a %d-lane gradient block", k), 1, k)
	_, err1 := e.Eval(tauS[0], tauH[0])
	if !errors.Is(err1, transient.ErrNewtonFailure) {
		t.Fatalf("Eval: err = %v, want a Newton failure", err1)
	}
	if _, err2 := e.Eval(tauS[0], tauH[0]); err2 == nil || err2.Error() != err1.Error() {
		t.Errorf("repeated Eval: err = %v, the first failed with %v", err2, err1)
	}
	if !errors.Is(errBlock, transient.ErrNewtonFailure) || errBlock.Error() != "stf: lane 0: "+err1.Error() {
		t.Errorf("EvalBlock: err = %v, want lane 0's Eval error %v", errBlock, err1)
	}
	if _, _, _, err := e.EvalGrad(tauS[0], tauH[0]); !errors.Is(err, transient.ErrNewtonFailure) {
		t.Errorf("EvalGrad: err = %v, want a Newton failure", err)
	}
	published("two failed Evals and a failed EvalGrad after them", 3, k+1)
	if e.Work.ResumedSteps != 0 || run.Counter(obs.CtrResumedSteps) != 0 {
		t.Errorf("resumed %d lane-steps (%d published) after failures before the rest trail, want 0",
			e.Work.ResumedSteps, run.Counter(obs.CtrResumedSteps))
	}
	checkLUAccounts(t, run)
}

func TestSupplyEnergyMagnitude(t *testing.T) {
	e := evaluatorFor(t, "tspc")
	en, err := e.SupplyEnergy(500e-12, 400e-12)
	if err != nil {
		t.Fatal(err)
	}
	// Scale check: total switched capacitance is tens of fF at 2.5 V over
	// a window with two clock edges → somewhere between 10 fJ and 100 pJ.
	if en < 1e-14 || en > 1e-10 {
		t.Errorf("supply energy %v J implausible", en)
	}
	// Energy must be deterministic.
	en2, err := e.SupplyEnergy(500e-12, 400e-12)
	if err != nil {
		t.Fatal(err)
	}
	if en != en2 {
		t.Errorf("non-deterministic energy: %v vs %v", en, en2)
	}
}

func TestSupplyEnergyVariesWithSkews(t *testing.T) {
	// Different skew pairs exercise the internal nodes differently; the
	// measured energies should not all collapse to one value.
	e := evaluatorFor(t, "tspc")
	a, err := e.SupplyEnergy(700e-12, 160e-12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.SupplyEnergy(280e-12, 600e-12)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Errorf("energies identical: %v", a)
	}
	rel := math.Abs(a-b) / math.Max(a, b)
	t.Logf("energy at two contour-ish points: %.3g J vs %.3g J (%.1f%% apart)", a, b, 100*rel)
}

func TestSupplyEnergyRequiresSupplyBranch(t *testing.T) {
	cell, err := registers.ByName("tspc")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := cell.Build()
	if err != nil {
		t.Fatal(err)
	}
	inst.Supply = -1
	ev, err := NewEvaluator(inst, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.SupplyEnergy(400e-12, 300e-12); err == nil {
		t.Error("missing supply branch accepted")
	}
}

// TestGradientConsistentAcrossIntegrators: BE and TRAP discretize the same
// ODE, so h and ∂h/∂τs must agree closely on the default fine grid. The
// hold derivative ∂h/∂τh is the stiffest quantity (the trailing data edge
// races an internal dynamic-node discharge): first-order BE needs sub-ps
// steps to converge it, so cross-method agreement is only asserted to a
// factor of two there — each method is separately validated against its own
// finite differences in TestGradientMatchesFiniteDifference.
func TestGradientConsistentAcrossIntegrators(t *testing.T) {
	cell, err := registers.ByName("tspc")
	if err != nil {
		t.Fatal(err)
	}
	instBE, err := cell.Build()
	if err != nil {
		t.Fatal(err)
	}
	evBE, err := NewEvaluator(instBE, Config{Method: transient.BE})
	if err != nil {
		t.Fatal(err)
	}
	instTR, err := cell.Build()
	if err != nil {
		t.Fatal(err)
	}
	evTR, err := NewEvaluator(instTR, Config{Method: transient.TRAP})
	if err != nil {
		t.Fatal(err)
	}
	// The two calibrations must themselves agree to discretization accuracy.
	if !num.ApproxEqual(evBE.Calibration().CharDelay, evTR.Calibration().CharDelay, 0.05, 0) {
		t.Errorf("calibrations differ: BE %v vs TRAP %v",
			evBE.Calibration().CharDelay, evTR.Calibration().CharDelay)
	}
	hB, gsB, ghB, err := evBE.EvalGrad(320e-12, 210e-12)
	if err != nil {
		t.Fatal(err)
	}
	hT, gsT, ghT, err := evTR.EvalGrad(320e-12, 210e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !num.ApproxEqual(hB, hT, 0.1, 0.05) {
		t.Errorf("h: BE %v vs TRAP %v", hB, hT)
	}
	if !num.ApproxEqual(gsB, gsT, 0.2, 1e8) {
		t.Errorf("dh/dτs: BE %v vs TRAP %v", gsB, gsT)
	}
	if ghB/ghT > 2 || ghT/ghB > 2 || num.Sign(ghB) != num.Sign(ghT) {
		t.Errorf("dh/dτh: BE %v vs TRAP %v beyond stiffness allowance", ghB, ghT)
	}
}

// TestPushoutCurveShape validates the Fig. 3(b)/7(a) structure: the delay
// equals the characteristic value for generous setup skews, grows
// monotonically as the skew shrinks toward the cliff, and capture fails
// beyond it.
func TestPushoutCurveShape(t *testing.T) {
	e := evaluatorFor(t, "tspc")
	cal := e.Calibration()
	pts, err := e.PushoutCurve(true, 500e-12, 150e-12, 750e-12, 13)
	if err != nil {
		t.Fatal(err)
	}
	if !pts[len(pts)-1].Latched {
		t.Fatal("generous setup skew failed to latch")
	}
	// Plateau: the last sample is within 2% of the characteristic delay.
	if !num.ApproxEqual(pts[len(pts)-1].Delay, cal.CharDelay, 0.02, 0) {
		t.Errorf("plateau delay %v ps vs characteristic %v ps",
			pts[len(pts)-1].Delay*1e12, cal.CharDelay*1e12)
	}
	// Failure at the starved end.
	if pts[0].Latched {
		t.Error("starved setup skew latched")
	}
	// Monotone pushout: among latched samples, delay non-increasing with
	// growing skew (small jitter allowed).
	prev := math.Inf(1)
	for _, p := range pts {
		if !p.Latched {
			continue
		}
		if p.Delay > prev+2e-12 {
			t.Errorf("pushout not monotone at skew %v ps", p.Skew*1e12)
		}
		prev = p.Delay
	}
	// Validation errors.
	if _, err := e.PushoutCurve(true, 1, 0, 1, 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := e.PushoutCurve(true, 1, 1, 0, 5); err == nil {
		t.Error("reversed range accepted")
	}
}
