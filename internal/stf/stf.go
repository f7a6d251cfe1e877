// Package stf exposes the state-transition function φ(tf; x0, 0, τs, τh) of
// a register circuit as a scalar characterization problem
//
//	h(τs, τh) = cᵀφ(tf; x0, 0, τs, τh) − r        (paper eq. (4))
//
// together with its gradient [∂h/∂τs, ∂h/∂τh] obtained from the transient
// engine's forward sensitivities (paper eqs. (11)–(14)). It also performs
// the calibration of Section IV: simulate with large skews, locate the
// characteristic clock-to-Q crossing tc, and derive the measurement time tf
// and level r for a prescribed clock-to-Q degradation.
package stf

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"latchchar/internal/circuit"
	"latchchar/internal/num"
	"latchchar/internal/obs"
	"latchchar/internal/registers"
	"latchchar/internal/solver"
	"latchchar/internal/transient"
)

// Config tunes the characterization setup.
type Config struct {
	// Method selects the integration scheme (default BE).
	Method transient.Method
	// CoarseStep and FineStep are the two-phase grid resolutions
	// (defaults 100 ps and 5 ps).
	CoarseStep, FineStep float64
	// MaxSetupSkew bounds the τs domain the fine window must cover
	// (default 1.0 ns).
	MaxSetupSkew float64
	// FineMargin is extra lead time before the earliest data activity
	// (default 0.2 ns).
	FineMargin float64
	// CalSkew is the large setup/hold skew used to measure the
	// characteristic clock-to-Q delay (default 1.2 ns).
	CalSkew float64
	// Degrade is the prescribed clock-to-Q degradation defining setup/hold
	// times (default 0.10, the paper's 10%).
	Degrade float64
	// PostWindow bounds how far past the active edge the calibration and
	// clock-to-Q transients hunt for the output crossing (default 3 ns); each
	// stops at the step that completes the crossing.
	PostWindow float64
	// MaxNewtonIter bounds the per-step Newton iterations of every transient
	// the evaluator launches (default 50, transient.Options).
	MaxNewtonIter int
	// Obs attaches observability: every transient the evaluator launches is
	// tagged and counted under the currently attached span (solvers re-parent
	// it via SetObs while they own the evaluator). nil disables collection.
	Obs *obs.Run
}

// WithDefaults returns the config with every unset field replaced by its
// default, exactly as the evaluator would normalize it. Static analysis
// (internal/vet) uses this so checks run against the effective values.
func (c Config) WithDefaults() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.CoarseStep <= 0 {
		c.CoarseStep = 100e-12
	}
	if c.FineStep <= 0 {
		c.FineStep = 5e-12
	}
	if c.MaxSetupSkew <= 0 {
		c.MaxSetupSkew = 1.0e-9
	}
	if c.FineMargin <= 0 {
		c.FineMargin = 0.2e-9
	}
	if c.CalSkew <= 0 {
		c.CalSkew = 1.2e-9
	}
	if c.Degrade <= 0 {
		c.Degrade = 0.10
	}
	if c.PostWindow <= 0 {
		c.PostWindow = 3e-9
	}
	if c.MaxNewtonIter <= 0 {
		c.MaxNewtonIter = 50
	}
	return c
}

// transientOptions renders the integrator-level options every transient the
// evaluator launches shares; skews and probes vary per call site.
func (c Config) transientOptions(skews bool, probes ...circuit.UnknownID) transient.Options {
	return transient.Options{
		Method:        c.Method,
		Skews:         skews,
		MaxNewtonIter: c.MaxNewtonIter,
		Probes:        probes,
	}
}

// Calibration is the outcome of the characteristic-delay measurement.
type Calibration struct {
	// TC is the time the output crosses R with ample skews (the paper's tc).
	TC float64
	// CharDelay is the characteristic clock-to-Q delay, TC − edge50.
	CharDelay float64
	// Tf is the measurement time: edge50 + (1+Degrade)·CharDelay.
	Tf float64
	// R is the absolute output level defining the crossing (the paper's r).
	R float64
	// Rising is the direction of the monitored output transition.
	Rising bool
}

// Evaluator computes h(τs, τh) and its gradient for one register instance.
// It is not safe for concurrent use; build one per goroutine via
// NewEvaluator with separate instances.
type Evaluator struct {
	inst *registers.Instance
	cfg  Config
	cal  Calibration
	x0   []float64
	grid transient.Grid
	run  *obs.Run
	ctx  context.Context

	engPlain *transient.Engine
	engGrad  *transient.Engine
	// engCross runs ClockToQ's stopped transients, built on first use; its
	// stop condition reads and fills cross.
	engCross *transient.Engine
	cross    crossing

	// trail is the rest trail on the measurement grid: the state at the
	// fine window's start and at every 4th fine grid point after it, on the
	// trajectory every run follows until its data line leaves rest
	// (DESIGN §5).
	trail *transient.Checkpoint

	// blk is EvalGradBlock's block-transient engine, built on first use,
	// and blkS, blkH the current block's skews for its setLane hook.
	blk        *transient.BlockEngine
	blkS, blkH []float64

	// PlainEvals and GradEvals count transient simulations by kind, failed
	// ones included and canceled ones not; the paper's cost comparisons are
	// expressed in these.
	PlainEvals, GradEvals int
	// Work accumulates integrator-level statistics of the same transients.
	Work transient.Stats
}

// NewEvaluator builds an evaluator: it computes the DC start state, runs the
// calibration transient and freezes the τ-independent measurement grid.
func NewEvaluator(inst *registers.Instance, cfg Config) (*Evaluator, error) {
	return newEvaluator(inst, cfg, nil)
}

// NewEvaluatorWithCalibration builds an evaluator reusing a calibration
// measured on an identical instance, skipping the calibration transient.
// Surface-generation workers use this so the brute-force cost accounting
// contains exactly the n² grid simulations.
func NewEvaluatorWithCalibration(inst *registers.Instance, cfg Config, cal Calibration) (*Evaluator, error) {
	return newEvaluator(inst, cfg, &cal)
}

func newEvaluator(inst *registers.Instance, cfg Config, cal *Calibration) (*Evaluator, error) {
	c := cfg.withDefaults()
	e := &Evaluator{inst: inst, cfg: c, run: c.Obs, ctx: context.Background()}

	// Fixed initial condition: the DC operating point at t = 0 with the
	// data line at rest (independent of the skews, paper step 1b/1c).
	inst.Data.SetSkews(c.CalSkew, c.CalSkew)
	x0, _, err := solver.DCOperatingPoint(inst.Circuit, 0, nil, solver.DCOptions{})
	if err != nil {
		return nil, fmt.Errorf("stf: DC operating point: %w", err)
	}
	e.x0 = x0

	if cal != nil {
		e.cal = *cal
	} else if err := e.calibrate(); err != nil {
		return nil, err
	}

	fineStart := e.fineStart(c.MaxSetupSkew)
	if fineStart <= 0 || fineStart >= e.cal.Tf {
		return nil, fmt.Errorf("stf: fine window start %g outside (0, tf=%g); reduce MaxSetupSkew", fineStart, e.cal.Tf)
	}
	grid, err := transient.TwoPhaseGrid(0, fineStart, e.cal.Tf, c.CoarseStep, c.FineStep)
	if err != nil {
		return nil, fmt.Errorf("stf: measurement grid: %w", err)
	}
	e.grid = grid
	e.trail = transient.NewCheckpoint(grid, sort.SearchFloat64s(grid.Points(), fineStart))
	e.engPlain = transient.NewEngine(inst.Circuit, c.transientOptions(false))
	e.engGrad = transient.NewEngine(inst.Circuit, c.transientOptions(true))
	return e, nil
}

// fineStart is where a grid's fine phase starts for setup skews up to
// maxTauS: FineMargin before the data pulse's earliest leading ramp, so the
// ramp and the clock edge after it both fall in the fine phase.
func (e *Evaluator) fineStart(maxTauS float64) float64 {
	return e.inst.Data.SupportStart(maxTauS) - e.cfg.FineMargin
}

// share is what a plain run at (τs, τh) shares on the rest trail. Its rest
// part holds strictly before the earliest start of the pair's data ramps:
// there its stimulus rests, with zero skew derivatives, as every other
// run's does. It also takes τs's branch strictly before the trailing ramp:
// there its stimulus is the leading ramp alone, as every other plain run's
// at that τs is (DESIGN §5).
func (e *Evaluator) share(tauS, tauH float64) transient.Share {
	d := e.inst.Data
	return transient.Share{Rest: d.RestUntil(tauS, tauH), Key: math.Float64bits(tauS), Branch: d.LeadOnlyUntil(tauH)}
}

// restUntil is the earliest start of any of the pairs' data ramps. A
// gradient run shares the rest trail strictly before it and takes no
// branch, since its ∂x/∂τs moves with the leading ramp.
func (e *Evaluator) restUntil(tauS, tauH []float64) float64 {
	rest := math.Inf(1)
	for i := range tauS {
		rest = math.Min(rest, e.inst.Data.RestUntil(tauS[i], tauH[i]))
	}
	return rest
}

// SetObs re-points the evaluator's observability handle; solvers use this
// (via core.ObsAttachable) to nest the transients they request under their
// own span. A nil handle disables collection.
func (e *Evaluator) SetObs(run *obs.Run) { e.run = run }

// SetContext re-points the evaluator's cancellation context; the ctx-first
// solvers use this (via core.CtxAttachable) so a canceled context stops the
// transient step loop mid-simulation. nil restores Background.
func (e *Evaluator) SetContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.ctx = ctx
}

// calibrate measures tc, the characteristic delay and tf (Section IV).
func (e *Evaluator) calibrate() error {
	sp := e.run.StartSpan(obs.SpanCalibrate)
	defer sp.End()
	c := e.cfg
	inst := e.inst
	swing := inst.VDD
	var r float64
	var dir int
	if inst.OutputRising {
		r = inst.CrossFrac * swing
		dir = +1
	} else {
		r = (1 - inst.CrossFrac) * swing
		dir = -1
	}

	fineStart := e.fineStart(c.CalSkew)
	if fineStart <= 0 {
		return fmt.Errorf("stf: calibration fine window start %g ≤ 0; reduce CalSkew", fineStart)
	}
	grid, err := transient.TwoPhaseGrid(0, fineStart, inst.Edge50+c.PostWindow, c.CoarseStep, c.FineStep)
	if err != nil {
		return fmt.Errorf("stf: calibration grid: %w", err)
	}
	inst.Data.SetSkews(c.CalSkew, c.CalSkew)
	tc, ok, err := e.firstCrossing(sp, grid, r, dir, inst.Edge50)
	if err != nil {
		return fmt.Errorf("stf: calibration transient: %w", err)
	}
	if !ok {
		return fmt.Errorf("stf: calibration output never crossed %g V after the active edge", r)
	}
	delay := tc - inst.Edge50
	e.cal = Calibration{
		TC:        tc,
		CharDelay: delay,
		Tf:        inst.Edge50 + (1+c.Degrade)*delay,
		R:         r,
		Rising:    inst.OutputRising,
	}
	return nil
}

// crossing is the stop condition of a transient that hunts for the output's
// first crossing of level in direction dir at or after tMin, and what it
// found.
type crossing struct {
	out   circuit.UnknownID
	level float64
	dir   int
	tMin  float64
	tc    float64
	ok    bool
}

// stop applies num.Crossing to the interval a step just completed, as
// num.CrossingTime does to a recorded waveform, interval by interval: the
// run stops at the interval CrossingTime would report, and tc equals
// CrossingTime's over the whole grid bit for bit. The steps after it, whose
// result the measurement would discard, never run.
func (c *crossing) stop(ta, tb float64, xa, xb []float64) bool {
	c.tc, c.ok = num.Crossing(ta, tb, xa[c.out], xb[c.out], c.level, c.dir, c.tMin)
	return c.ok
}

// firstCrossing runs a plain transient from x0 over grid at the current
// skews, under run, on an engine of its own, and returns the time tc at
// which the output first crosses level in direction dir at or after tMin.
// The run stops at the step that completes the crossing (crossing.stop). An
// output that never crosses runs the whole grid and returns ok = false.
func (e *Evaluator) firstCrossing(run *obs.Run, grid transient.Grid, level float64, dir int, tMin float64) (tc float64, ok bool, err error) {
	c := &crossing{out: e.inst.Out, level: level, dir: dir, tMin: tMin}
	opts := e.cfg.transientOptions(false)
	opts.Stop = c.stop
	return e.runCrossing(transient.NewEngine(e.inst.Circuit, opts), c, run, grid, nil, transient.Share{}, nil)
}

// runCrossing runs eng, whose stop condition is c.stop, over grid under run,
// from x0 or from cp's states the run shares, counts it in *n (n may be nil)
// and returns what c found.
func (e *Evaluator) runCrossing(eng *transient.Engine, c *crossing, run *obs.Run, grid transient.Grid, cp *transient.Checkpoint, sh transient.Share, n *int) (tc float64, ok bool, err error) {
	c.tc, c.ok = 0, false
	_, err = eng.RunCtx(e.ctx, run, e.x0, grid, cp, sh)
	e.spend(run, eng, obs.CtrTransients, n, err)
	if err != nil {
		return 0, false, err
	}
	return c.tc, c.ok, nil
}

// spend accounts for a transient that ran on eng under run: one on the
// counter ctr and in *n (n may be nil), and its work in e.Work. A run that
// failed counts too, with the work it did, as a block's failed lane does; a
// canceled run counts nothing, as a canceled block does.
func (e *Evaluator) spend(run *obs.Run, eng *transient.Engine, ctr string, n *int, err error) {
	if errors.Is(err, transient.ErrCanceled) {
		return
	}
	if n != nil {
		*n++
	}
	run.Count(ctr, 1)
	e.Work.Add(eng.LastStats())
}

// Calibration returns the measured characteristic timing.
func (e *Evaluator) Calibration() Calibration { return e.cal }

// Grid returns the τ-independent measurement grid (for diagnostics).
func (e *Evaluator) Grid() transient.Grid { return e.grid }

// Instance returns the evaluated register instance.
func (e *Evaluator) Instance() *registers.Instance { return e.inst }

// Eval computes h(τs, τh) = cᵀx(tf) − r with one transient simulation.
func (e *Evaluator) Eval(tauS, tauH float64) (float64, error) {
	e.inst.Data.SetSkews(tauS, tauH)
	res, err := e.engPlain.RunCtx(e.ctx, e.run, e.x0, e.grid, e.trail, e.share(tauS, tauH))
	e.spend(e.run, e.engPlain, obs.CtrTransients, &e.PlainEvals, err)
	if err != nil {
		return 0, err
	}
	return res.X[e.inst.Out] - e.cal.R, nil
}

// EvalGrad computes h and its gradient [∂h/∂τs, ∂h/∂τh] with one transient
// simulation carrying forward sensitivities.
func (e *Evaluator) EvalGrad(tauS, tauH float64) (h, dhdS, dhdH float64, err error) {
	e.inst.Data.SetSkews(tauS, tauH)
	res, err := e.engGrad.RunCtx(e.ctx, e.run, e.x0, e.grid, e.trail, transient.Share{Rest: e.inst.Data.RestUntil(tauS, tauH)})
	e.spend(e.run, e.engGrad, obs.CtrTransientsGrad, &e.GradEvals, err)
	if err != nil {
		return 0, 0, 0, err
	}
	out := e.inst.Out
	return res.X[out] - e.cal.R, res.Ms[out], res.Mh[out], nil
}

// Waveforms runs a plain transient from the evaluator's start state on the
// measurement grid's coarse prefix and fine step, run to tEnd instead of tf,
// and records probes at every grid point. With tEnd = tf the grid is the
// measurement grid, so the run is the transient behind Eval. It integrates
// from x0: the probes need every grid point.
func (e *Evaluator) Waveforms(tauS, tauH, tEnd float64, probes ...circuit.UnknownID) (*transient.Result, error) {
	if tEnd <= e.grid.Start() {
		return nil, fmt.Errorf("stf: waveform end %g before grid start", tEnd)
	}
	grid, err := e.gridTo(tEnd)
	if err != nil {
		return nil, err
	}
	e.inst.Data.SetSkews(tauS, tauH)
	eng := transient.NewEngine(e.inst.Circuit, e.cfg.transientOptions(false, probes...))
	res, err := eng.RunCtx(e.ctx, e.run, e.x0, grid, nil, transient.Share{})
	e.spend(e.run, eng, obs.CtrTransients, &e.PlainEvals, err)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// gridTo is the measurement grid's coarse prefix and fine step, run to tEnd
// instead of tf.
func (e *Evaluator) gridTo(tEnd float64) (transient.Grid, error) {
	return transient.TwoPhaseGrid(0, e.fineStart(e.cfg.MaxSetupSkew), tEnd, e.cfg.CoarseStep, e.cfg.FineStep)
}

// OutputUntil runs a plain transient on an extended grid ending at tEnd
// (past the usual measurement time tf) and returns the output waveform.
// Used to expose post-tf behavior such as the C²MOS false transitions of
// Fig. 11(b).
func (e *Evaluator) OutputUntil(tauS, tauH, tEnd float64) (times, out []float64, err error) {
	res, err := e.Waveforms(tauS, tauH, tEnd, e.inst.Out)
	if err != nil {
		return nil, nil, err
	}
	return res.Times, res.Probes[0], nil
}

// ClockToQ measures the actual clock-to-Q delay for one skew pair: the time
// from the active edge's 50% crossing to the output's crossing of the
// calibrated level r (the "pushout curve" data of the paper's Figs. 3 and 7).
// The transient runs on OutputUntil's grid to PostWindow past the edge and
// stops at the crossing, so the delay equals the one found on OutputUntil's
// waveform bit for bit. That grid is the measurement grid up to the fine
// window's start and no further, so the run shares the rest trail's first
// state only. ok is false when the register fails to latch within that
// window.
func (e *Evaluator) ClockToQ(tauS, tauH float64) (delay float64, ok bool, err error) {
	edge := e.inst.Edge50
	grid, err := e.gridTo(edge + e.cfg.PostWindow)
	if err != nil {
		return 0, false, err
	}
	dir := -1
	if e.cal.Rising {
		dir = +1
	}
	e.inst.Data.SetSkews(tauS, tauH)
	if e.engCross == nil {
		opts := e.cfg.transientOptions(false)
		opts.Stop = e.cross.stop
		e.engCross = transient.NewEngine(e.inst.Circuit, opts)
	}
	e.cross = crossing{out: e.inst.Out, level: e.cal.R, dir: dir, tMin: edge}
	tc, ok, err := e.runCrossing(e.engCross, &e.cross, e.run, grid, e.trail, transient.Share{Rest: e.inst.Data.RestUntil(tauS, tauH)}, &e.PlainEvals)
	if err != nil {
		return 0, false, err
	}
	if !ok {
		return 0, false, nil
	}
	return tc - edge, true, nil
}

// SupplyEnergy measures the energy drawn from the main supply over the
// measurement window [0, tf] for one skew pair, by integrating the supply
// branch current (trapezoidal rule over the transient grid) and scaling by
// VDD. Different points of the constant clock-to-Q contour can draw
// different energy — the power-optimization degree of freedom the paper's
// introduction highlights for SHIA-STA.
func (e *Evaluator) SupplyEnergy(tauS, tauH float64) (float64, error) {
	if e.inst.Supply < 0 {
		return 0, fmt.Errorf("stf: instance has no supply branch for energy measurement")
	}
	res, err := e.Waveforms(tauS, tauH, e.cal.Tf, e.inst.Supply)
	if err != nil {
		return 0, err
	}
	// The branch current of a source delivering power is negative in the
	// MNA convention (current flows out of the + terminal), so the drawn
	// charge is −∫ i dt.
	q := 0.0
	ts := res.Times
	is := res.Probes[0]
	for k := 1; k < len(ts); k++ {
		q += 0.5 * (is[k] + is[k-1]) * (ts[k] - ts[k-1])
	}
	return -q * e.inst.VDD, nil
}

// PushoutPoint is one sample of a clock-to-Q pushout curve.
type PushoutPoint struct {
	// Skew is the swept skew value (seconds).
	Skew float64
	// Delay is the measured clock-to-Q delay; valid when Latched.
	Delay float64
	// Latched reports whether the register captured the data.
	Latched bool
}

// PushoutCurve sweeps one skew axis with the other pinned and measures the
// actual clock-to-Q delay at each sample — the "pushout" plots of the
// paper's Figs. 3(b) and 7(a): the delay sits at its characteristic value
// for generous skews and grows sharply (then fails) as the swept skew
// approaches the cliff. axisSetup selects whether τs (true) or τh (false)
// is swept from lo to hi in n samples.
func (e *Evaluator) PushoutCurve(axisSetup bool, pinned, lo, hi float64, n int) ([]PushoutPoint, error) {
	if n < 2 {
		return nil, fmt.Errorf("stf: PushoutCurve needs n ≥ 2")
	}
	if hi <= lo {
		return nil, fmt.Errorf("stf: PushoutCurve needs hi > lo")
	}
	out := make([]PushoutPoint, n)
	for i := 0; i < n; i++ {
		skew := lo + float64(i)*(hi-lo)/float64(n-1)
		var tauS, tauH float64
		if axisSetup {
			tauS, tauH = skew, pinned
		} else {
			tauS, tauH = pinned, skew
		}
		d, ok, err := e.ClockToQ(tauS, tauH)
		if err != nil {
			return nil, err
		}
		out[i] = PushoutPoint{Skew: skew, Delay: d, Latched: ok}
	}
	return out, nil
}

// ResetCounters zeroes the simulation counters (used between benchmark
// phases).
func (e *Evaluator) ResetCounters() {
	e.PlainEvals = 0
	e.GradEvals = 0
	e.Work = transient.Stats{}
}
