// Package latchchar is an interdependent latch setup/hold time
// characterization library, reproducing "Interdependent Latch Setup/Hold
// Time Characterization via Euler-Newton Curve Tracing on State-Transition
// Equations" (Srivastava & Roychowdhury, DAC 2007).
//
// The library formulates the constant clock-to-Q contour of a register as
// the solution set of the underdetermined scalar equation
//
//	h(τs, τh) = cᵀφ(tf; x0, 0, τs, τh) − r = 0
//
// where φ is the state-transition function of the register's circuit
// equations, and traces the contour directly with a Moore-Penrose Newton
// corrector inside an Euler predictor-corrector continuation — computing a
// full interdependent setup/hold tradeoff curve in O(n) transient
// simulations instead of the O(n²) of brute-force surface generation.
//
// The simplest entry point characterizes a built-in register cell:
//
//	cell, _ := latchchar.CellByName("tspc")
//	res, err := latchchar.Characterize(cell, latchchar.Options{Points: 40})
//	for _, p := range res.Contour.Points {
//		fmt.Printf("τs=%.1fps τh=%.1fps\n", p.TauS*1e12, p.TauH*1e12)
//	}
//
// The underlying pieces — the circuit simulator, the state-transition
// evaluator, the MPNR/Euler-Newton solvers and the brute-force baseline —
// are exposed through the type aliases below for programs that need finer
// control.
package latchchar

import (
	"context"
	"errors"
	"fmt"
	"time"

	"latchchar/internal/core"
	"latchchar/internal/obs"
	"latchchar/internal/registers"
	"latchchar/internal/stf"
	"latchchar/internal/surface"
	"latchchar/internal/transient"
	"latchchar/internal/wave"
)

// Re-exported building blocks. The aliases give external users access to
// the full type surface without reaching into internal packages.
type (
	// Cell is a register type with its standard characterization stimulus.
	Cell = registers.Cell
	// Instance is one built register circuit.
	Instance = registers.Instance
	// Process holds device/technology parameters for the built-in cells.
	Process = registers.Process
	// Timing holds the clock/data timing for the built-in cells.
	Timing = registers.Timing
	// Contour is a traced constant clock-to-Q curve.
	Contour = core.Contour
	// ContourPoint is one solved point on the contour.
	ContourPoint = core.Point
	// Rect bounds a skew domain.
	Rect = core.Rect
	// Calibration holds the measured characteristic timing (tc, tf, r).
	Calibration = stf.Calibration
	// Evaluator computes h(τs, τh) and its gradient for an instance.
	Evaluator = stf.Evaluator
	// EvalConfig tunes the state-transition evaluator.
	EvalConfig = stf.Config
	// TraceOptions tunes the Euler-Newton tracer.
	TraceOptions = core.TraceOptions
	// MPNROptions tunes the Moore-Penrose Newton corrector.
	MPNROptions = core.MPNROptions
	// SeedOptions tunes the first-point bracketing search.
	SeedOptions = core.SeedOptions
	// Surface is a sampled output surface over the skew plane.
	Surface = surface.Surface
	// Polyline is an extracted iso-contour chain.
	Polyline = surface.Polyline
	// Problem is the abstract h(τs, τh) = 0 interface the solvers accept.
	Problem = core.Problem
)

// Method re-exports the integration schemes.
const (
	BE   = transient.BE
	TRAP = transient.TRAP
)

// Data-ramp profiles for Timing.DataShape.
const (
	// RampSmooth is the C¹ smoothstep profile (default).
	RampSmooth = wave.RampSmooth
	// RampLinear is the piecewise-linear SPICE PULSE-style profile.
	RampLinear = wave.RampLinear
)

// CellByName returns a built-in register cell ("tspc", "c2mos" or "tgate")
// with default process and timing.
func CellByName(name string) (*Cell, error) { return registers.ByName(name) }

// DefaultProcess returns the default technology parameters.
func DefaultProcess() Process { return registers.DefaultProcess() }

// DefaultTiming returns the paper's clock/data timing.
func DefaultTiming() Timing { return registers.DefaultTiming() }

// TSPCCell builds a TSPC cell with explicit parameters.
func TSPCCell(p Process, tm Timing) *Cell { return registers.TSPC(p, tm) }

// C2MOSCell builds a C²MOS cell with explicit parameters and clk̄ delay.
func C2MOSCell(p Process, tm Timing, clkbDelay float64) *Cell {
	return registers.C2MOS(p, tm, registers.C2MOSOptions{ClkbDelay: clkbDelay})
}

// TGateCell builds the transmission-gate example cell.
func TGateCell(p Process, tm Timing) *Cell { return registers.TGate(p, tm) }

// CellMakerByName returns a constructor over the process axes for a built-in
// cell — the mk argument Monte-Carlo flows rebuild perturbed cells with. The
// timing is fixed across draws; inline netlists have no maker (they carry no
// process parameters to perturb).
func CellMakerByName(name string, tm Timing) (func(Process) *Cell, error) {
	switch name {
	case "tspc":
		return func(p Process) *Cell { return TSPCCell(p, tm) }, nil
	case "c2mos":
		return func(p Process) *Cell { return C2MOSCell(p, tm, 0) }, nil
	case "tgate":
		return func(p Process) *Cell { return TGateCell(p, tm) }, nil
	}
	return nil, fmt.Errorf("latchchar: cell %q has no process-parameterized constructor", name)
}

// Options configure a full characterization run.
type Options struct {
	// Points is the number of contour points to trace per direction
	// (default 40, the paper's validation count).
	Points int
	// Step is the Euler step length α (default 5 ps).
	Step float64
	// Bounds stops tracing outside this skew rectangle. The zero Rect
	// enables a default domain derived from Eval.MaxSetupSkew.
	Bounds Rect
	// BothDirections traces the curve both ways from the seed.
	BothDirections bool
	// Eval tunes the underlying transient evaluator.
	Eval EvalConfig
	// Seed tunes the first-point search.
	Seed SeedOptions
	// MPNR tunes the corrector.
	MPNR MPNROptions
	// RecordSteps keeps the predictor/corrector history in the result.
	RecordSteps bool
	// Resample, when ≥ 2, redistributes the traced contour into exactly
	// that many arc-length-uniform points, each polished back onto the
	// curve with MPNR.
	Resample int
	// Block is the predictor lookahead width: a value > 1 makes the tracer
	// predict a bundle of Block points along the tangent each cycle and
	// correct them as one lockstep block-transient (shared Jacobians, batched
	// device evaluation, per-point peel-off). 0 or 1 keeps the scalar
	// predictor-corrector.
	Block int
	// Obs attaches observability: spans, counters, histograms and live
	// progress flow to the run's sinks. nil disables collection with no
	// hot-path cost.
	Obs *ObsRun
}

// Result is the outcome of Characterize.
type Result struct {
	// Contour is the traced constant clock-to-Q curve.
	Contour *Contour
	// Calibration is the measured characteristic timing.
	Calibration Calibration
	// Seed is the first point handed to the tracer.
	Seed ContourPoint
	// PlainSims and GradSims count transient simulations by kind
	// (calibration excluded; it is a fixed +1 for any method).
	PlainSims, GradSims int
	// Stats aggregates integrator-level work (steps, Newton iterations, LU
	// factorizations, wall-clock attribution) over the characterization's
	// transients; like PlainSims it excludes the calibration, whose work the
	// evaluator counts before the characterization starts.
	Stats transient.Stats
	// Elapsed is the wall-clock characterization time.
	Elapsed time.Duration
}

// TotalSims returns the total transient count, the paper's cost metric.
func (r *Result) TotalSims() int { return r.PlainSims + r.GradSims }

// ErrCanceled is the sentinel wrapped by every cancellation report; test
// with errors.Is. Canceled characterizations return it alongside a Result
// carrying the partial contour traced so far.
var ErrCanceled = core.ErrCanceled

// CanceledError is the structured cancellation report: the interrupted
// stage, the last solved point and the partial-contour size.
type CanceledError = core.CanceledError

// Characterize is CharacterizeCtx with context.Background().
func Characterize(cell *Cell, opts Options) (*Result, error) {
	return CharacterizeCtx(context.Background(), cell, opts)
}

// CharacterizeCtx runs the complete Euler-Newton flow of the paper on a
// fresh instance of the cell: calibrate, bracket a seed at large hold skew,
// correct it with MPNR, and trace the constant clock-to-Q contour. It is
// the canonical characterization entry point; the context threads through
// the seed search, the tracer and into the transient step loop, so
// cancellation takes effect within one integration step. A canceled run
// returns an error wrapping ErrCanceled together with a non-nil Result
// holding the partial contour (when the trace had begun) — still a valid
// prefix of the setup/hold tradeoff curve. Services and batch workloads
// want Engine.Characterize instead, which runs the same flow on a bounded
// worker pool with calibration reuse.
func CharacterizeCtx(ctx context.Context, cell *Cell, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	inst, err := cell.Build()
	if err != nil {
		return nil, fmt.Errorf("latchchar: build %s: %w", cell.Name, err)
	}
	ev, err := stf.NewEvaluator(inst, opts.Eval)
	if err != nil {
		return nil, fmt.Errorf("latchchar: evaluator: %w", err)
	}
	res, _, err := characterizeCtx(ctx, ev, opts, nil)
	return res, err
}

// CharacterizeWithEvaluator is CharacterizeWithEvaluatorCtx with
// context.Background().
func CharacterizeWithEvaluator(ev *Evaluator, opts Options) (*Result, error) {
	return CharacterizeWithEvaluatorCtx(context.Background(), ev, opts)
}

// CharacterizeWithEvaluatorCtx runs the characterization flow on an
// existing evaluator (e.g. to reuse one across parameter sweeps); see
// CharacterizeCtx for the cancellation semantics.
func CharacterizeWithEvaluatorCtx(ctx context.Context, ev *Evaluator, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	res, _, err := characterizeCtx(ctx, ev, opts, nil)
	return res, err
}

// characterizeCtx is the shared characterization core. A non-nil warm point
// (a contour point donated by a previously traced neighbor — another PVT
// corner or Monte-Carlo sample of the same cell) replaces the bracketing
// search entirely: the tracer's own MPNR seed correction pulls it onto this
// instance's curve in a couple of gradient evaluations. If the warm trace
// fails or degenerates, the cold flow runs as a fallback. The returned bool
// reports whether the warm seed was actually used.
func characterizeCtx(ctx context.Context, ev *Evaluator, opts Options, warm *ContourPoint) (*Result, bool, error) {
	start := time.Now()
	ev.ResetCounters()
	sp := opts.Obs.StartSpan(obs.SpanCharacterize)
	ev.SetObs(sp)
	defer func() {
		ev.SetObs(opts.Obs)
		sp.End()
	}()
	maxS := opts.Eval.WithDefaults().MaxSetupSkew
	bounds := opts.Bounds
	if (bounds == Rect{}) {
		bounds = Rect{MinS: 1e-12, MaxS: maxS, MinH: 1e-12, MaxH: maxS}
	}
	traceOpts := TraceOptions{
		Step:           opts.Step,
		MaxPoints:      opts.Points,
		Bounds:         bounds,
		BothDirections: opts.BothDirections,
		MPNR:           opts.MPNR,
		RecordSteps:    opts.RecordSteps,
		Block:          opts.Block,
		Obs:            sp,
	}
	finish := func(ct *Contour) *Result {
		if ct == nil {
			ct = &Contour{}
		}
		res := &Result{
			Contour:     ct,
			Calibration: ev.Calibration(),
			PlainSims:   ev.PlainEvals,
			GradSims:    ev.GradEvals,
			Stats:       ev.Work,
			Elapsed:     time.Since(start),
		}
		if len(ct.Points) > 0 {
			res.Seed = ct.Points[0]
		}
		return res
	}

	warmUsed := false
	var ct *Contour
	var err error
	if warm != nil {
		ct, err = core.TraceContourCtx(ctx, ev, warm.TauS, warm.TauH, traceOpts)
		switch {
		case err == nil && len(ct.Points) >= 2:
			warmUsed = true
			sp.Count(obs.CtrWarmSeeds, 1)
		case err != nil && errors.Is(err, ErrCanceled):
			return finish(ct), true, fmt.Errorf("latchchar: tracing: %w", err)
		}
		// Any other outcome (seed correction diverged on this instance's
		// curve, degenerate contour) falls back to the cold flow below; the
		// transients already spent stay in the counters.
	}
	if !warmUsed {
		seedOpts := opts.Seed
		if seedOpts.Hi <= 0 || seedOpts.Hi > maxS {
			seedOpts.Hi = 0.8 * maxS
		}
		seedOpts.Obs = sp
		seed, serr := core.FindSeedCtx(ctx, ev, seedOpts)
		if serr != nil {
			return nil, false, fmt.Errorf("latchchar: seeding: %w", serr)
		}
		ct, err = core.TraceContourCtx(ctx, ev, seed.TauS, seed.TauH, traceOpts)
		if err != nil {
			if errors.Is(err, ErrCanceled) {
				return finish(ct), false, fmt.Errorf("latchchar: tracing: %w", err)
			}
			return nil, false, fmt.Errorf("latchchar: tracing: %w", err)
		}
	}
	if opts.Resample >= 2 {
		resampleOpts := opts.MPNR
		resampleOpts.Obs = sp
		// Block > 1 batches the per-point polish through the lockstep
		// block-transient kernel, just like the trace loop's bundles.
		rs, rerr := core.ResampleContourBlockCtx(ctx, ev, ct, opts.Resample, opts.Block, resampleOpts)
		if rerr != nil {
			if errors.Is(rerr, ErrCanceled) {
				// Keep the fully traced contour; only the redistribution
				// was interrupted.
				return finish(ct), warmUsed, fmt.Errorf("latchchar: resampling: %w", rerr)
			}
			return nil, warmUsed, fmt.Errorf("latchchar: resampling: %w", rerr)
		}
		ct = rs
	}
	return finish(ct), warmUsed, nil
}

// SurfaceOptions configure brute-force surface generation.
type SurfaceOptions struct {
	// N is the grid resolution per axis (default 40, i.e. the paper's
	// 40×40 = 1600 simulations).
	N int
	// Domain is the swept skew rectangle (default [10 ps, 0.8 ns]²).
	Domain Rect
	// Parallelism bounds the sweep's concurrency (default: the engine
	// pool's worker count). The paper's cost comparison counts simulations,
	// which is independent of Parallelism.
	Parallelism int
	// Block is accepted and ignored: every grid point runs its own plain
	// transient, and a row's runs share their common stretch on the
	// evaluator's rest trail (DESIGN §5), which lockstep lanes only
	// lengthened. Validate still rejects a negative value.
	//
	// Deprecated: surfaces run one lane per grid point; leave Block unset.
	Block int
	// Eval tunes the per-worker evaluators.
	Eval EvalConfig
	// Obs attaches observability: the sweep runs inside a "surface" span
	// with per-row progress; worker transients are counted. nil disables
	// collection.
	Obs *ObsRun
}

// SurfaceResult is the outcome of BruteForce.
type SurfaceResult struct {
	// Surface holds h(τs, τh) samples (add Calibration.R for the raw
	// output-voltage surface of Figs. 1(a) and 9).
	Surface *Surface
	// Contour is the marching-squares extraction of h = 0 — the
	// interdependent setup/hold pairs of the brute-force method.
	Contour []Polyline
	// Calibration is the shared characteristic timing.
	Calibration Calibration
	// Sims is the number of grid transient simulations (N²).
	Sims int
	// Elapsed is the wall-clock generation time.
	Elapsed time.Duration
}

// BruteForce is BruteForceCtx with context.Background().
func BruteForce(cell *Cell, opts SurfaceOptions) (*SurfaceResult, error) {
	return BruteForceCtx(context.Background(), cell, opts)
}

// BruteForceCtx reproduces the prior-practice baseline: sample the output
// surface on an N×N grid of trial skews and extract the constant clock-to-Q
// contour by interpolation, running the grid on the shared DefaultEngine
// pool with cancellation.
func BruteForceCtx(ctx context.Context, cell *Cell, opts SurfaceOptions) (*SurfaceResult, error) {
	return DefaultEngine().BruteForce(ctx, cell, opts)
}

// BruteForce runs the brute-force baseline on this engine's pool: one task
// per grid row, sharing the Parallelism bound (and the calibration cache)
// with any concurrently running batch.
func (e *Engine) BruteForce(ctx context.Context, cell *Cell, opts SurfaceOptions) (*SurfaceResult, error) {
	start := time.Now()
	// Every grid point is its own plain transient: the row's runs share its
	// τs on the evaluator's rest trail and branch (DESIGN §5).
	sf, cal, err := e.sweep(ctx, cell, opts, func(ev *stf.Evaluator) surface.BlockEvalFunc {
		return func(s float64, h, out []float64) error {
			for j := range h {
				v, err := ev.Eval(s, h[j])
				if err != nil {
					return err
				}
				out[j] = v
			}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	return &SurfaceResult{
		Surface:     sf,
		Contour:     sf.Contour(0),
		Calibration: cal,
		Sims:        sf.NumSamples(),
		Elapsed:     time.Since(start),
	}, nil
}

// sweep is the brute-force loop BruteForce and BruteForceDelay share: it
// validates and defaults opts, calibrates once (or takes the engine's
// cached calibration) and sweeps the N×N grid on the engine's pool inside a
// "surface" span, with one evaluator per worker; row builds a worker's row
// function over its evaluator. Workers reuse the calibration, keeping the
// cost accounting at exactly N² grid transients.
func (e *Engine) sweep(ctx context.Context, cell *Cell, opts SurfaceOptions, row func(*stf.Evaluator) surface.BlockEvalFunc) (*Surface, Calibration, error) {
	if err := opts.Validate(); err != nil {
		return nil, Calibration{}, err
	}
	if opts.N <= 0 {
		opts.N = 40
	}
	if (opts.Domain == Rect{}) {
		opts.Domain = Rect{MinS: 10e-12, MaxS: 0.8e-9, MinH: 10e-12, MaxH: 0.8e-9}
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = e.pool.NumWorkers()
	}
	sp := opts.Obs.StartSpan(obs.SpanSurface)
	defer sp.End()
	cal, _, err := e.calibrationFor(cell, opts.Eval, sp)
	if err != nil {
		return nil, Calibration{}, err
	}
	factory := func() (surface.BlockEvalFunc, error) {
		inst, err := cell.Build()
		if err != nil {
			return nil, err
		}
		cfg := opts.Eval
		cfg.Obs = sp
		ev, err := stf.NewEvaluatorWithCalibration(inst, cfg, cal)
		if err != nil {
			return nil, err
		}
		ev.SetContext(ctx)
		return row(ev), nil
	}
	sAxis := surface.Linspace(opts.Domain.MinS, opts.Domain.MaxS, opts.N)
	hAxis := surface.Linspace(opts.Domain.MinH, opts.Domain.MaxH, opts.N)
	sf, err := surface.GenerateBlockCtx(ctx, sp, sAxis, hAxis, factory, e.pool, workers)
	if err != nil {
		return nil, Calibration{}, fmt.Errorf("latchchar: surface generation: %w", err)
	}
	return sf, cal, nil
}

// CompareContours returns the maximum and mean distance from the traced
// contour's points to the surface-extracted contour — the quantitative
// overlay of Figs. 10 and 12(b). Distances are in seconds.
func CompareContours(en *Contour, ref []Polyline) (max, mean float64, err error) {
	return surface.Deviation(en.SetupHoldPairs(), ref)
}

// DefaultFastPath returns EvalConfig{}.
//
// Deprecated: the chord/bypass fast path is gone (DESIGN §10); every
// evaluator takes the paper's exact Newton step. Use EvalConfig{}.
func DefaultFastPath() EvalConfig { return EvalConfig{} }

// NewEvaluator builds a state-transition evaluator for a fresh instance of
// the cell.
func NewEvaluator(cell *Cell, cfg EvalConfig) (*Evaluator, error) {
	inst, err := cell.Build()
	if err != nil {
		return nil, err
	}
	return stf.NewEvaluator(inst, cfg)
}
