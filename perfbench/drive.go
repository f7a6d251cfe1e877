package main

import (
	"context"
	"time"

	"latchchar/internal/obs"
	"latchchar/internal/stf"
	"latchchar/internal/transient"
)

// timedEval wraps an stf.Evaluator for the traced drives: it forwards the
// core.Problem, core.BlockProblem, core.ObsAttachable and core.CtxAttachable
// methods unchanged and records the wall time and number of calls the solvers
// make into the stf layer.
type timedEval struct {
	ev *stf.Evaluator

	evalCalls, gradCalls, blockCalls int
	// lanes counts gradient evaluations: one per scalar EvalGrad, one per
	// block lane.
	lanes int
	wall  time.Duration
}

func (t *timedEval) Eval(tauS, tauH float64) (float64, error) {
	t0 := time.Now()
	h, err := t.ev.Eval(tauS, tauH)
	t.wall += time.Since(t0)
	t.evalCalls++
	return h, err
}

func (t *timedEval) EvalGrad(tauS, tauH float64) (h, dhdS, dhdH float64, err error) {
	t0 := time.Now()
	h, dhdS, dhdH, err = t.ev.EvalGrad(tauS, tauH)
	t.wall += time.Since(t0)
	t.gradCalls++
	t.lanes++
	return h, dhdS, dhdH, err
}

func (t *timedEval) EvalGradBlock(tauS, tauH []float64) (h, dhdS, dhdH []float64, errs []error, err error) {
	t0 := time.Now()
	h, dhdS, dhdH, errs, err = t.ev.EvalGradBlock(tauS, tauH)
	t.wall += time.Since(t0)
	t.blockCalls++
	t.lanes += len(tauS)
	return h, dhdS, dhdH, errs, err
}

// evalBlock times a plain block evaluation (the surface sweep's call).
func (t *timedEval) evalBlock(tauS, tauH []float64) ([]float64, error) {
	t0 := time.Now()
	v, err := t.ev.EvalBlock(tauS, tauH)
	t.wall += time.Since(t0)
	t.blockCalls++
	return v, err
}

func (t *timedEval) SetObs(run *obs.Run)            { t.ev.SetObs(run) }
func (t *timedEval) SetContext(ctx context.Context) { t.ev.SetContext(ctx) }

// layerSample is one traced op's split. Times are exclusive where the name
// says self; the inclusive spans (seed, trace, grid) contain their children.
type layerSample struct {
	wall                   time.Duration
	calibrate, seed, trace time.Duration
	grid, extract          time.Duration
	stfWall                time.Duration
	work                   transient.Stats

	evalCalls, gradCalls, blockCalls, lanes int
	sims, points, correctorIters            int
}

// add accumulates another sample.
func (s *layerSample) add(o layerSample) {
	s.wall += o.wall
	s.calibrate += o.calibrate
	s.seed += o.seed
	s.trace += o.trace
	s.grid += o.grid
	s.extract += o.extract
	s.stfWall += o.stfWall
	s.work.Add(o.work)
	s.evalCalls += o.evalCalls
	s.gradCalls += o.gradCalls
	s.blockCalls += o.blockCalls
	s.lanes += o.lanes
	s.sims += o.sims
	s.points += o.points
	s.correctorIters += o.correctorIters
}

// reportTimes reports the per-op time split of n traced ops.
func reportTimes(o *outcome, sum layerSample, n int) {
	per := func(d time.Duration) float64 { return ms(d) / float64(n) }
	w := sum.work
	o.set("core.seed_ms", per(sum.seed), "ms")
	o.set("core.trace_ms", per(sum.trace), "ms")
	if sum.seed+sum.trace > 0 {
		o.set("core.self_ms", per(sum.seed+sum.trace-sum.stfWall), "ms")
	}
	o.set("stf.calibrate_ms", per(sum.calibrate), "ms")
	o.set("stf.self_ms", per(sum.stfWall-w.Wall), "ms")
	o.set("transient.wall_ms", per(w.Wall), "ms")
	o.set("transient.self_ms", per(w.Wall-w.LU-w.DeviceEval-w.Sens), "ms")
	o.set("transient.sens_ms", per(w.Sens), "ms")
	o.set("sparse.lu_ms", per(w.LU), "ms")
	o.set("circuit.device_eval_ms", per(w.DeviceEval), "ms")
	o.set("surface.grid_ms", per(sum.grid), "ms")
	o.set("surface.extract_ms", per(sum.extract), "ms")
}

// reportCounts reports the per-op work counts of the n ops in the count set
// — a fixed prefix of the op sequence, so at Parallelism 1 every count is a
// pure function of the seed and repeats exactly across runs.
func reportCounts(o *outcome, sum layerSample, n int, core bool) {
	per := func(v int) float64 { return float64(v) / float64(n) }
	w := sum.work
	if core {
		o.set("core.sims", per(sum.sims), "count")
		o.set("core.sims_per_point", ratio(float64(sum.sims), float64(sum.points)), "ratio")
		o.set("core.corrector_iters_per_point", ratio(float64(sum.correctorIters), float64(sum.points)), "ratio")
		o.set("core.lanes_per_point", ratio(float64(sum.lanes), float64(sum.points)), "ratio")
	}
	o.set("stf.eval_calls", per(sum.evalCalls), "count")
	o.set("stf.grad_calls", per(sum.gradCalls), "count")
	o.set("stf.block_calls", per(sum.blockCalls), "count")
	workCounts(o, w, n)
}

// workCounts reports the transient-level counts of n ops.
func workCounts(o *outcome, w transient.Stats, n int) {
	per := func(v int) float64 { return float64(v) / float64(n) }
	o.set("transient.steps", per(w.Steps), "count")
	o.set("transient.newton_iters", per(w.NewtonIters), "count")
	o.set("transient.chord_ratio", ratio(float64(w.ChordIters), float64(w.NewtonIters)), "ratio")
	o.set("transient.block_peel_offs", per(w.BlockPeelOffs), "count")
	o.set("transient.shared_step_ratio", ratio(float64(w.BlockSharedSteps), float64(w.Steps+w.BlockSharedSteps)), "ratio")
	o.set("sparse.factorizations", per(w.Factorizations), "count")
	o.set("circuit.device_bypasses", per(w.DeviceBypasses), "count")
	o.set("circuit.donor_replays", per(w.BlockDonorReplays), "count")
}

// sameCounts reports whether two ops did exactly the same integrator work.
func sameCounts(a, b transient.Stats) bool {
	a.Wall, a.LU, a.DeviceEval, a.Sens = 0, 0, 0, 0
	b.Wall, b.LU, b.DeviceEval, b.Sens = 0, 0, 0, 0
	return a == b
}
