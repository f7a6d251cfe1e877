package transient

import (
	"context"
	"fmt"
	"runtime/pprof"
	"time"

	"latchchar/internal/circuit"
	"latchchar/internal/obs"
)

// BlockEngine advances K gradient-carrying transients of one circuit in
// lockstep — the multi-point kernel of DESIGN §13 that the tracer's
// lookahead bundles, Monte-Carlo probes and resample run on. Each lane is a
// full scalar Engine (structure-of-arrays state: lane-major vectors, shared
// symbolic analysis via newEngine's prototype path), and every lane steps
// through the one Engine.step. Lanes 1…K−1 refactorize over lane 0's pivot
// analysis, so every lane's result equals a scalar Engine's at its stimulus
// bit for bit, whatever the block ran before. The lanes cooperate in two
// ways:
//
//   - Shared exact prefix: the caller passes tSplit, the earliest time any
//     lane's stimulus can differ. Until then every lane is bit-identical, so
//     only lane 0 integrates and the other lanes inherit its state at the
//     fork — K−1 lane-steps saved per prefix step, counted in
//     Stats.BlockSharedSteps.
//   - Peel-off: a lane whose Newton iteration fails records its error and
//     drops out; the remaining lanes continue unharmed. The error is the
//     lane's result: the scalar engine would fail the same way.
//
// A block run resumes from a Checkpoint's rest part and appends to it as a
// scalar gradient run does, through lane 0: every lane's stimulus agrees
// with the trail's before the run's Share.Rest. It takes no branch.
//
// The lanes are built on first use: a K-lane run steps the first K, and
// keeps them for the next run. A BlockEngine is not safe for concurrent use.
type BlockEngine struct {
	c     *circuit.Circuit
	opts  Options
	lanes []*Engine
	// setLane installs lane k's stimulus parameters (the skews) on the shared
	// circuit before any of that lane's device evaluations. The lanes share
	// one Circuit whose data source is mutable state, so every burst of
	// lane-k work is preceded by setLane(k).
	setLane func(lane int)
}

// NewBlockEngine prepares a block engine. setLane is invoked with a lane
// index before that lane evaluates any device; it must reconfigure the
// shared circuit's stimulus for that lane (and may be nil when all lanes
// share one stimulus). Lane 0's engine performs the symbolic analysis; the
// others alias its sparsity structure. Options.Skews must be set: plain
// transients run one lane at a time on Engine. Options.Probes and
// Options.Stop are not supported on the block path (both are scalar-run
// concerns) and must be unset.
func NewBlockEngine(c *circuit.Circuit, opts Options, setLane func(lane int)) *BlockEngine {
	if !opts.Skews {
		panic("transient: BlockEngine needs Options.Skews")
	}
	if len(opts.Probes) != 0 {
		panic("transient: BlockEngine does not support Probes")
	}
	if opts.Stop != nil {
		panic("transient: BlockEngine does not support Stop")
	}
	return &BlockEngine{c: c, opts: opts.withDefaults(), setLane: setLane}
}

// lanesFor returns the first k lanes, building the missing ones.
func (b *BlockEngine) lanesFor(k int) []*Engine {
	for len(b.lanes) < k {
		var proto *Engine
		if len(b.lanes) > 0 {
			proto = b.lanes[0]
		}
		b.lanes = append(b.lanes, newEngine(b.c, b.opts, proto))
	}
	return b.lanes[:k]
}

// BlockResult holds the per-lane outcomes of a block run plus the aggregate
// work accounting. Lane k failed iff Errs[k] != nil, in which case X[k],
// Ms[k] and Mh[k] are nil.
type BlockResult struct {
	// X[k] is lane k's final state x(t_end).
	X [][]float64
	// Ms and Mh are lane k's final sensitivities ∂x/∂τs and ∂x/∂τh.
	Ms, Mh [][]float64
	// Errs[k] is lane k's Newton failure, nil for lanes that converged. A
	// failure before the fork (in the shared prefix, where all lanes are
	// identical) fails every lane.
	Errs []error
	// Stats aggregates the work of all lanes. Steps, NewtonIters and
	// Factorizations count executed work only; BlockSharedSteps counts the
	// lane-steps the prefix saved and ResumedSteps those the trail did.
	Stats Stats
}

// Ok reports whether every lane converged.
func (r *BlockResult) Ok() bool {
	for _, err := range r.Errs {
		if err != nil {
			return false
		}
	}
	return true
}

// Run integrates k lanes (k ≥ 1) from x0 at grid.Start() to grid.End().
// tSplit is the earliest time any lane's stimulus can differ from lane 0's:
// steps ending strictly before tSplit integrate lane 0 only (pass
// math.Inf(1) when all lanes are identical, 0 — or any t ≤ grid.Start() — to
// disable sharing). Lane Newton failures are reported per-lane in
// BlockResult.Errs; the returned error is non-nil only for invalid options,
// a lane count below 1, a bad x0, or cancellation.
func (b *BlockEngine) Run(k int, x0 []float64, grid Grid, tSplit float64) (*BlockResult, error) {
	return b.RunCtx(context.Background(), nil, k, x0, grid, tSplit, nil, Share{})
}

// RunCtx is Run with cancellation, observability and a rest trail: the
// block runs inside a "transient" span of run with block counters and the
// per-lane iteration histograms merged in, and a canceled ctx stops the
// lockstep loop between steps. A canceled run still publishes the work it
// did to run. A non-nil cp is shared before sh.Rest, which holds for every
// lane, as a gradient Engine.RunCtx shares it.
func (b *BlockEngine) RunCtx(ctx context.Context, run *obs.Run, k int, x0 []float64, grid Grid, tSplit float64, cp *Checkpoint, sh Share) (*BlockResult, error) {
	if k <= 0 {
		return nil, fmt.Errorf("transient: a block run needs at least one lane, got %d", k)
	}
	if err := b.opts.Validate(); err != nil {
		return nil, err
	}
	lanes := b.lanesFor(k)
	if attach(run, lanes...) {
		defer pprof.SetGoroutineLabels(context.Background())
	}
	luF0, luR0 := luCounts(lanes...)
	sp := run.StartSpan(obs.SpanTransient)
	res, st, err := b.run(ctx, lanes, x0, grid, tSplit, cp.open(grid.Points(), sh, false))
	publish(sp, luF0, luR0, st, lanes...)
	sp.Count(obs.CtrBlockRuns, 1)
	sp.Observe(obs.HistBlockSize, k)
	sp.Count(obs.CtrBlockPeelOffs, int64(st.BlockPeelOffs))
	sp.Count(obs.CtrBlockSharedSteps, int64(st.BlockSharedSteps))
	sp.End()
	return res, err
}

// run integrates lanes over grid, from x0 or from a state of the run's
// trail tr, and returns, besides the result, the lanes' aggregate work,
// which a canceled run reports too.
func (b *BlockEngine) run(ctx context.Context, lanes []*Engine, x0 []float64, grid Grid, tSplit float64, tr trailRun) (*BlockResult, Stats, error) {
	n := b.c.N()
	if len(x0) != n {
		return nil, Stats{}, fmt.Errorf("transient: x0 length %d, want %d", len(x0), n)
	}
	K := len(lanes)
	pts := grid.Points()
	res := &BlockResult{
		X:    make([][]float64, K),
		Ms:   make([][]float64, K),
		Mh:   make([][]float64, K),
		Errs: make([]error, K),
	}
	wall0 := time.Now()
	luF0 := make([]int, K)
	for j, e := range lanes {
		e.stats, e.sample = Stats{}, layerSample{}
		luF0[j] = e.lu.Factorizations + e.lu.Refactorizations
	}

	dead := make([]bool, K)
	alive := K
	forked := false
	sharedSteps := 0
	stepsRun := 0

	b.lane(0)
	k0 := lanes[0].start(x0, pts[0], &tr)

	// fork brings lanes 1…K−1 to lane 0's state. After a shared prefix or a
	// trail state the lanes were bit-identical up to here, so copying the
	// integrator state (and the sensitivities, exactly zero until the
	// stimulus support begins) is exact. With neither the lanes may already
	// differ at t0, so each initializes independently from x0 instead.
	fork := func(k int) {
		for j := 1; j < K; j++ {
			if k == 1 {
				b.lane(j)
				lanes[j].initAt(x0, pts[0])
			} else {
				lanes[j].forkFrom(lanes[0])
			}
		}
		forked = true
	}

	done := ctx.Done()
	var cancelErr error
	for k := k0 + 1; k < len(pts); k++ {
		if cancelErr = canceled(ctx, done, pts[k], k, len(pts)-1); cancelErr != nil {
			break
		}
		t0, t1 := pts[k-1], pts[k]
		if !forked && t1 < tSplit {
			// Shared prefix: the lanes are still bit-identical, so one lane's
			// step stands in for all of them. The caller guarantees the
			// stimulus cannot differ before tSplit; the strict comparison
			// protects the step that lands exactly on the divergence time.
			b.lane(0)
			if err := lanes[0].step(t0, t1); err != nil {
				werr := fmt.Errorf("%w at t=%.6g s (step %d, shared prefix)", err, t1, k)
				for j := range dead {
					dead[j] = true
					res.Errs[j] = werr
				}
				alive = 0
				break
			}
			stepsRun++
			sharedSteps += K - 1
			if k == tr.next {
				tr.save(k, lanes[0])
			}
			continue
		}
		if !forked {
			fork(k)
		}
		// Lockstep: every live lane takes the step, in index order.
		for j, e := range lanes {
			if dead[j] {
				continue
			}
			b.lane(j)
			err := e.step(t0, t1)
			stepsRun++
			if err != nil {
				// Peel-off: this lane is done, the block continues.
				dead[j] = true
				res.Errs[j] = fmt.Errorf("%w at t=%.6g s (step %d, lane %d)", err, t1, k, j)
				alive--
			}
		}
		if alive == 0 {
			break
		}
		if k == tr.next && !dead[0] {
			tr.save(k, lanes[0])
		}
	}
	if cancelErr == nil && !forked && alive > 0 {
		fork(len(pts)) // degenerate: the whole grid was shared
	}

	var (
		st     Stats
		sample layerSample
	)
	for j, e := range lanes {
		st.Add(e.stats)
		st.Factorizations += e.lu.Factorizations + e.lu.Refactorizations - luF0[j]
		sample.add(e.sample)
	}
	st.Steps = stepsRun
	st.ResumedSteps = K * k0
	st.BlockSharedSteps = sharedSteps
	if alive > 0 {
		st.BlockPeelOffs = K - alive
	}
	st.Wall = time.Since(wall0)
	sample.split(&st)
	if cancelErr != nil {
		return nil, st, cancelErr
	}
	for j, e := range lanes {
		if !dead[j] {
			res.X[j] = append([]float64(nil), e.x...)
			res.Ms[j] = append([]float64(nil), e.ms...)
			res.Mh[j] = append([]float64(nil), e.mh...)
		}
	}
	res.Stats = st
	return res, st, nil
}

// lane invokes the setLane hook for lane j.
func (b *BlockEngine) lane(j int) {
	if b.setLane != nil {
		b.setLane(j)
	}
}
