package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"latchchar"
	"latchchar/internal/core"
	"latchchar/internal/obs"
	"latchchar/internal/stf"
)

// contourOpts is the fastest production characterization mode: fast-path
// evaluator, 8-lane block predictor, the paper's 40 points per direction.
var contourOpts = latchchar.Options{
	Points:         40,
	BothDirections: true,
	Block:          8,
	Eval:           latchchar.DefaultFastPath(),
}

// solverState is a solver workload's set-up: the op sequence, its repeating
// inputs, and an engine whose calibration LRU already holds them.
type solverState struct {
	eng *latchchar.Engine
	seq *opSeq
	hot []input
}

func (s solverState) close() {
	if s.eng != nil {
		s.eng.Close()
	}
}

// newEngine starts a sequential engine and warms its calibration LRU with
// the hot inputs: a 2×2 brute-force surface calibrates and caches each cell
// under exactly the key a characterization with the same evaluator config
// looks up.
func newEngine(hot []input, eval latchchar.EvalConfig) (*latchchar.Engine, error) {
	eng, err := latchchar.NewEngine(latchchar.EngineOptions{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	for _, in := range hot {
		if _, err := eng.BruteForce(context.Background(), in.cell, latchchar.SurfaceOptions{N: 2, Parallelism: 1, Eval: eval}); err != nil {
			eng.Close()
			return nil, fmt.Errorf("warm calibration of %s: %w", in.key, err)
		}
	}
	return eng, nil
}

// warmInput is a cell outside every op sequence, used to page in the code
// paths before the window opens.
func warmInput(seed int64, name string) (input, error) {
	cs, err := corners(^seed, 1)
	if err != nil {
		return input{}, err
	}
	mk := makerFor(name)
	return input{key: name + "/warm", cell: mk(cs[0]), mk: mk}, nil
}

// solverSetup builds a solver workload's state — the op sequence over cells
// and hot inputs, and an engine with the hot calibrations cached — then runs
// warm once on the engine with a cell outside the sequence.
func solverSetup(cfg config, cells []string, hot []input, eval latchchar.EvalConfig, warmCell string, warm func(*latchchar.Engine, input) error) (solverState, error) {
	seq, err := newOpSeq(cfg.seed, cells, hot)
	if err != nil {
		return solverState{}, err
	}
	eng, err := newEngine(hot, eval)
	if err != nil {
		return solverState{}, err
	}
	st := solverState{eng: eng, seq: seq, hot: hot}
	in, err := warmInput(cfg.seed, warmCell)
	if err == nil {
		err = warm(eng, in)
	}
	if err != nil {
		st.close()
		return solverState{}, fmt.Errorf("warm-up: %w", err)
	}
	return st, nil
}

// contourSetup parses the example decks — the contour workload's hot inputs
// — and warms the engine with one characterization.
func contourSetup(cfg config) (solverState, error) {
	decks, err := loadDecks(cfg.root, contourDecks)
	if err != nil {
		return solverState{}, err
	}
	return solverSetup(cfg, builtins, decks, contourOpts.Eval, "tgate", func(eng *latchchar.Engine, in input) error {
		_, err := eng.Characterize(context.Background(), in.cell, contourOpts)
		return err
	})
}

func runContour(cfg config, o *outcome) error {
	if cfg.trace {
		return traceContour(cfg, o)
	}
	st, err := repeatSetup(o, func() (solverState, error) { return contourSetup(cfg) }, solverState.close, nil)
	if err != nil {
		return err
	}
	defer st.close()
	measureWindow(cfg, o, st, func(in input, _ int) (*latchchar.Result, error) {
		return st.eng.Characterize(context.Background(), in.cell, contourOpts)
	}, (*oracle).checkContour)
	return nil
}

// contourDrive runs Engine.Characterize's flow from outside, one layer call
// at a time — cell.Build → stf.NewEvaluator → core.FindSeedCtx →
// core.TraceContourCtx — with a calibration cache mirroring the engine's
// LRU, an obs run attached (which turns on the transient LU/device/sens
// attribution) and the evaluator behind the timedEval wrapper.
type contourDrive struct {
	opts latchchar.Options
	cals map[string]stf.Calibration
}

// calibrate caches an input's calibration, as the engine's warm-up does.
func (d *contourDrive) calibrate(in input) error {
	inst, err := in.cell.Build()
	if err != nil {
		return err
	}
	ev, err := stf.NewEvaluator(inst, d.opts.Eval)
	if err != nil {
		return err
	}
	d.cals[in.key] = ev.Calibration()
	return nil
}

// run characterizes one input, returning the contour and the layer split.
func (d *contourDrive) run(in input) (*latchchar.Result, layerSample, error) {
	var ls layerSample
	ctx := context.Background()
	run := obs.New()
	defer run.Close()
	t0 := time.Now()
	inst, err := in.cell.Build()
	if err != nil {
		return nil, ls, err
	}
	cfg := d.opts.Eval
	cfg.Obs = run
	tc := time.Now()
	var ev *stf.Evaluator
	if cal, ok := d.cals[in.key]; ok {
		ev, err = stf.NewEvaluatorWithCalibration(inst, cfg, cal)
	} else {
		ev, err = stf.NewEvaluator(inst, cfg)
		if err == nil {
			d.cals[in.key] = ev.Calibration()
		}
	}
	ls.calibrate = time.Since(tc)
	if err != nil {
		return nil, ls, err
	}
	ev.ResetCounters()
	te := &timedEval{ev: ev}

	// The same seed window and trace bounds characterizeCtx derives from the
	// default MaxSetupSkew.
	const maxS = 1.0e-9
	seedOpts := d.opts.Seed
	seedOpts.Hi = 0.8 * maxS
	seedOpts.Obs = run
	ts := time.Now()
	seed, err := core.FindSeedCtx(ctx, te, seedOpts)
	ls.seed = time.Since(ts)
	if err != nil {
		return nil, ls, fmt.Errorf("seeding: %w", err)
	}
	traceOpts := core.TraceOptions{
		Step:           d.opts.Step,
		MaxPoints:      d.opts.Points,
		Bounds:         core.Rect{MinS: 1e-12, MaxS: maxS, MinH: 1e-12, MaxH: maxS},
		BothDirections: d.opts.BothDirections,
		MPNR:           d.opts.MPNR,
		Block:          d.opts.Block,
		Obs:            run,
	}
	tt := time.Now()
	ct, err := core.TraceContourCtx(ctx, te, seed.TauS, seed.TauH, traceOpts)
	ls.trace = time.Since(tt)
	ls.wall = time.Since(t0)
	if err != nil {
		return nil, ls, fmt.Errorf("tracing: %w", err)
	}
	ls.stfWall = te.wall
	ls.work = ev.Work
	ls.evalCalls, ls.gradCalls, ls.blockCalls, ls.lanes = te.evalCalls, te.gradCalls, te.blockCalls, te.lanes
	ls.sims = ev.PlainEvals + ev.GradEvals
	ls.points = len(ct.Points)
	for _, p := range ct.Points {
		ls.correctorIters += p.CorrectorIters
	}
	res := &latchchar.Result{
		Contour:     ct,
		Calibration: ev.Calibration(),
		PlainSims:   ev.PlainEvals,
		GradSims:    ev.GradEvals,
		Stats:       ev.Work,
	}
	return res, ls, nil
}

func traceContour(cfg config, o *outcome) error {
	st, err := contourSetup(cfg)
	if err != nil {
		return err
	}
	defer st.close()
	d := &contourDrive{opts: contourOpts, cals: map[string]stf.Calibration{}}
	for _, in := range st.hot {
		if err := d.calibrate(in); err != nil {
			return fmt.Errorf("warm calibration of %s: %w", in.key, err)
		}
	}
	warm, err := warmInput(cfg.seed, "tgate")
	if err != nil {
		return err
	}
	if _, _, err := d.run(warm); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	countOps := st.seq.roundLen()
	var sum, counted layerSample
	ops, n := traceWindow(cfg, o, st.seq, func(in input, i int) (*latchchar.Result, error) {
		res, ls, err := d.run(in)
		if err == nil {
			sum.add(ls)
			if i < countOps {
				counted.add(ls)
			}
		}
		return res, err
	}, guard[*latchchar.Result]{
		// The set-up engine sees the sequence in the same order as the
		// drive's calibration mirror, so both hit and miss alike.
		untraced: func(in input, _ int) (*latchchar.Result, error) {
			return st.eng.Characterize(context.Background(), in.cell, contourOpts)
		},
		diff: workDiff,
	})
	if n == 0 {
		return fmt.Errorf("every traced op failed")
	}
	reportTimes(o, sum, n)
	reportCounts(o, counted, countOps, true)
	coverage(o, "contour", ms(sum.wall)/float64(n), ms(sum.calibrate+sum.seed+sum.trace)/float64(n))
	for _, op := range ops {
		if op.ok && len(op.res.Contour.Points) >= 8 {
			if err := allocsPerEval(o, op.in.cell, op.res.Contour.Points[:8], true); err != nil {
				return err
			}
			break
		}
	}
	checkAll(cfg, o, ops, (*oracle).checkContour)
	zeroLayers(o)
	return nil
}

// allocsPerEval measures the heap allocations of one warm block evaluation
// on the production (untraced) fast-path evaluator at pts: gradient blocks
// when grad is set, plain blocks otherwise.
func allocsPerEval(o *outcome, cell *latchchar.Cell, pts []latchchar.ContourPoint, grad bool) error {
	ev, err := latchchar.NewEvaluator(cell, latchchar.DefaultFastPath())
	if err != nil {
		return err
	}
	tauS := make([]float64, len(pts))
	tauH := make([]float64, len(pts))
	for k, p := range pts {
		tauS[k], tauH[k] = p.TauS, p.TauH
	}
	call := func() error {
		if grad {
			_, _, _, _, err := ev.EvalGradBlock(tauS, tauH)
			return err
		}
		_, err := ev.EvalBlock(tauS, tauH)
		return err
	}
	for k := 0; k < 2; k++ {
		if err := call(); err != nil {
			return err
		}
	}
	const calls = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < calls; k++ {
		if err := call(); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	o.set("stf.allocs_per_eval", float64(after.Mallocs-before.Mallocs)/calls, "count")
	return nil
}

// workDiff describes how two characterization results differ: the contour
// beyond the guard tolerances, or any difference in the work done.
func workDiff(a, b *latchchar.Result) string {
	if d := contourDiff(a.Contour, b.Contour); d != "" {
		return d
	}
	if a.TotalSims() != b.TotalSims() || !sameCounts(a.Stats, b.Stats) {
		return fmt.Sprintf("work differs: sims %d vs %d, factorizations %d vs %d, Newton iterations %d vs %d",
			a.TotalSims(), b.TotalSims(), a.Stats.Factorizations, b.Stats.Factorizations, a.Stats.NewtonIters, b.Stats.NewtonIters)
	}
	return ""
}
