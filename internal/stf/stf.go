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
	"fmt"
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
	// PostWindow is how far past the active edge the calibration transient
	// runs while hunting for the crossing (default 3 ns).
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

	// cp is the rest-stimulus checkpoint at grid point cpT, the last one
	// before the data line can leave rest for τs ≤ MaxSetupSkew (DESIGN §5);
	// nil when no grid point after the first precedes that time.
	cp  *transient.Checkpoint
	cpT float64

	// Block-transient lanes (EvalBlock/EvalGradBlock): engines cached per
	// lane count, plus the current block's skews for the setLane hook.
	blkPlain   map[int]*transient.BlockEngine
	blkGrad    map[int]*transient.BlockEngine
	blkS, blkH []float64

	// PlainEvals and GradEvals count transient simulations by kind; the
	// paper's cost comparisons are expressed in these.
	PlainEvals, GradEvals int
	// Work accumulates integrator-level statistics.
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
	pts := grid.Points()
	if k := sort.SearchFloat64s(pts, inst.Data.SupportStart(c.MaxSetupSkew)) - 1; k >= 1 {
		e.cp, e.cpT = transient.NewCheckpoint(k), pts[k]
	}
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

// checkpoint returns the checkpoint for a run at the skew pairs, or nil for
// a run from x0. A run may save into or resume from it only when every
// pair's data ramps start strictly after cpT: its stimulus then rests, with
// zero skew derivatives, at every grid point up to cpT, as every other
// such run's does, so all of them integrate the same trajectory there.
func (e *Evaluator) checkpoint(tauS, tauH []float64) *transient.Checkpoint {
	for i := range tauS {
		if !(e.cpT < e.inst.Data.RestUntil(tauS[i], tauH[i])) {
			return nil
		}
	}
	return e.cp
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
	eng := transient.NewEngine(inst.Circuit, c.transientOptions(false, inst.Out))
	inst.Data.SetSkews(c.CalSkew, c.CalSkew)
	res, err := eng.RunObs(sp, e.x0, grid)
	if err != nil {
		return fmt.Errorf("stf: calibration transient: %w", err)
	}
	sp.Count(obs.CtrTransients, 1)
	e.Work.Add(res.Stats)
	tc, ok := num.CrossingTime(res.Times, res.Probes[0], r, dir, inst.Edge50)
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

// Calibration returns the measured characteristic timing.
func (e *Evaluator) Calibration() Calibration { return e.cal }

// Grid returns the τ-independent measurement grid (for diagnostics).
func (e *Evaluator) Grid() transient.Grid { return e.grid }

// Instance returns the evaluated register instance.
func (e *Evaluator) Instance() *registers.Instance { return e.inst }

// Eval computes h(τs, τh) = cᵀx(tf) − r with one transient simulation.
func (e *Evaluator) Eval(tauS, tauH float64) (float64, error) {
	e.inst.Data.SetSkews(tauS, tauH)
	res, err := e.engPlain.RunCtx(e.ctx, e.run, e.x0, e.grid, e.checkpoint([]float64{tauS}, []float64{tauH}))
	if err != nil {
		return 0, err
	}
	e.PlainEvals++
	e.run.Count(obs.CtrTransients, 1)
	e.Work.Add(res.Stats)
	return res.X[e.inst.Out] - e.cal.R, nil
}

// EvalGrad computes h and its gradient [∂h/∂τs, ∂h/∂τh] with one transient
// simulation carrying forward sensitivities.
func (e *Evaluator) EvalGrad(tauS, tauH float64) (h, dhdS, dhdH float64, err error) {
	e.inst.Data.SetSkews(tauS, tauH)
	res, err := e.engGrad.RunCtx(e.ctx, e.run, e.x0, e.grid, e.checkpoint([]float64{tauS}, []float64{tauH}))
	if err != nil {
		return 0, 0, 0, err
	}
	e.GradEvals++
	e.run.Count(obs.CtrTransientsGrad, 1)
	e.Work.Add(res.Stats)
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
	grid, err := transient.TwoPhaseGrid(0, e.fineStart(e.cfg.MaxSetupSkew), tEnd, e.cfg.CoarseStep, e.cfg.FineStep)
	if err != nil {
		return nil, err
	}
	e.inst.Data.SetSkews(tauS, tauH)
	eng := transient.NewEngine(e.inst.Circuit, e.cfg.transientOptions(false, probes...))
	res, err := eng.RunCtx(e.ctx, e.run, e.x0, grid, nil)
	if err != nil {
		return nil, err
	}
	e.PlainEvals++
	e.run.Count(obs.CtrTransients, 1)
	e.Work.Add(res.Stats)
	return res, nil
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
// calibrated level r, found on an extended transient (the "pushout curve"
// data of the paper's Figs. 3 and 7). ok is false when the register fails
// to latch within the search window.
func (e *Evaluator) ClockToQ(tauS, tauH float64) (delay float64, ok bool, err error) {
	edge := e.inst.Edge50
	times, out, err := e.OutputUntil(tauS, tauH, edge+e.cfg.PostWindow)
	if err != nil {
		return 0, false, err
	}
	dir := -1
	if e.cal.Rising {
		dir = +1
	}
	tc, ok := num.CrossingTime(times, out, e.cal.R, dir, edge)
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
