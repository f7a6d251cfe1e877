package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"latchchar"
	"latchchar/internal/obs"
	"latchchar/internal/sched"
	"latchchar/internal/stf"
	"latchchar/internal/surface"
)

// surfaceOpts is the paper's brute-force baseline at its 40×40 grid, on the
// fast-path block kernel.
var surfaceOpts = latchchar.SurfaceOptions{
	N:           40,
	Block:       8,
	Parallelism: 1,
	Eval:        latchchar.DefaultFastPath(),
}

var surfaceCells = []string{"tspc", "c2mos"}

// surfaceSetup warms the engine with one small surface; the hot inputs are
// the surface cells at the nominal process.
func surfaceSetup(cfg config) (solverState, error) {
	return solverSetup(cfg, surfaceCells, nominalInputs(surfaceCells), surfaceOpts.Eval, "tspc", func(eng *latchchar.Engine, in input) error {
		small := surfaceOpts
		small.N = 8
		_, err := eng.BruteForce(context.Background(), in.cell, small)
		return err
	})
}

func runSurface(cfg config, o *outcome) error {
	if cfg.trace {
		return traceSurface(cfg, o)
	}
	st, err := repeatSetup(o, func() (solverState, error) { return surfaceSetup(cfg) }, solverState.close, nil)
	if err != nil {
		return err
	}
	defer st.close()
	measureWindow(cfg, o, st, func(in input, _ int) (*latchchar.SurfaceResult, error) {
		return st.eng.BruteForce(context.Background(), in.cell, surfaceOpts)
	}, (*oracle).checkSurface)
	return nil
}

// checkSurface verifies one surface: the extraction found the contour, and
// sampled grid values agree with the exact evaluator within hGate. The
// samples sit next to the h = 0 crossing of randomly chosen rows — the
// region the extracted contour interpolates from (far from it the output
// saturates and the fast path's bypass staleness alone exceeds the gate).
func (o *oracle) checkSurface(in input, res *latchchar.SurfaceResult, rng *rand.Rand) error {
	if len(res.Contour) == 0 || res.Sims != surfaceOpts.N*surfaceOpts.N {
		return fmt.Errorf("%s: no contour extracted or wrong grid size", in.key)
	}
	ev, err := o.exact(in, res.Calibration)
	if err != nil {
		return err
	}
	sf := res.Surface
	for k := 0; k < 3; k++ {
		i := rng.Intn(len(sf.S))
		j := 0
		for jj := range sf.H {
			if math.Abs(sf.V[i][jj]) < math.Abs(sf.V[i][j]) {
				j = jj
			}
		}
		h, err := ev.Eval(sf.S[i], sf.H[j])
		if err != nil {
			return fmt.Errorf("%s: exact eval: %w", in.key, err)
		}
		if d := math.Abs(h - sf.V[i][j]); d > hGate {
			return fmt.Errorf("%s: grid value at (%.4g ps, %.4g ps) deviates %.3g V from the exact evaluator (gate %.3g V)",
				in.key, sf.S[i]*1e12, sf.H[j]*1e12, d, hGate)
		}
	}
	return nil
}

// surfaceDrive runs Engine.BruteForce's flow from outside: the engine's
// calibration lookup, then surface.GenerateBlockCtx over a sequential pool
// with the same 8-lane row chunking, each EvalBlock call timed, then the
// marching-squares extraction re-timed.
type surfaceDrive struct {
	cals map[string]stf.Calibration
	pool *sched.Pool
}

func (d *surfaceDrive) run(in input) (*latchchar.SurfaceResult, layerSample, error) {
	var ls layerSample
	ctx := context.Background()
	run := obs.New()
	defer run.Close()
	t0 := time.Now()
	sp := run.StartSpan(obs.SpanSurface)
	defer sp.End()
	cfg := surfaceOpts.Eval
	cfg.Obs = sp
	tc := time.Now()
	cal, ok := d.cals[in.key]
	if !ok {
		inst, err := in.cell.Build()
		if err != nil {
			return nil, ls, err
		}
		ev, err := stf.NewEvaluator(inst, cfg)
		if err != nil {
			return nil, ls, err
		}
		cal = ev.Calibration()
		d.cals[in.key] = cal
	}
	ls.calibrate = time.Since(tc)

	te := &timedEval{}
	var evs []*stf.Evaluator
	lanes := surfaceOpts.Block
	factory := func() (surface.BlockEvalFunc, error) {
		tf := time.Now()
		defer func() { te.wall += time.Since(tf) }()
		inst, err := in.cell.Build()
		if err != nil {
			return nil, err
		}
		ev, err := stf.NewEvaluatorWithCalibration(inst, cfg, cal)
		if err != nil {
			return nil, err
		}
		ev.SetContext(ctx)
		evs = append(evs, ev)
		te.ev = ev
		tauS := make([]float64, 0, lanes)
		return func(s float64, h, out []float64) error {
			for lo := 0; lo < len(h); lo += lanes {
				hi := min(lo+lanes, len(h))
				tauS = tauS[:0]
				for range h[lo:hi] {
					tauS = append(tauS, s)
				}
				vals, err := te.evalBlock(tauS, h[lo:hi])
				if err != nil {
					return err
				}
				copy(out[lo:hi], vals)
			}
			return nil
		}, nil
	}
	dom := latchchar.Rect{MinS: 10e-12, MaxS: 0.8e-9, MinH: 10e-12, MaxH: 0.8e-9}
	sAxis := surface.Linspace(dom.MinS, dom.MaxS, surfaceOpts.N)
	hAxis := surface.Linspace(dom.MinH, dom.MaxH, surfaceOpts.N)
	tg := time.Now()
	sf, err := surface.GenerateBlockCtx(ctx, sp, sAxis, hAxis, factory, d.pool, surfaceOpts.Parallelism)
	ls.grid = time.Since(tg)
	if err != nil {
		return nil, ls, err
	}
	tx := time.Now()
	polys := sf.Contour(0)
	ls.extract = time.Since(tx)
	ls.wall = time.Since(t0)
	for _, ev := range evs {
		ls.work.Add(ev.Work)
	}
	ls.stfWall = te.wall
	ls.blockCalls = te.blockCalls
	return &latchchar.SurfaceResult{Surface: sf, Contour: polys, Calibration: cal, Sims: sf.NumSamples()}, ls, nil
}

func traceSurface(cfg config, o *outcome) error {
	st, err := surfaceSetup(cfg)
	if err != nil {
		return err
	}
	defer st.close()
	pool := sched.NewPool(1)
	defer pool.Close()
	d := &surfaceDrive{cals: map[string]stf.Calibration{}, pool: pool}
	for _, in := range st.hot {
		inst, err := in.cell.Build()
		if err != nil {
			return err
		}
		ev, err := stf.NewEvaluator(inst, surfaceOpts.Eval)
		if err != nil {
			return fmt.Errorf("warm calibration of %s: %w", in.key, err)
		}
		d.cals[in.key] = ev.Calibration()
	}

	countOps := st.seq.roundLen()
	var sum, counted layerSample
	ops, n := traceWindow(cfg, o, st.seq, func(in input, i int) (*latchchar.SurfaceResult, error) {
		res, ls, err := d.run(in)
		if err == nil {
			sum.add(ls)
			if i < countOps {
				counted.add(ls)
			}
		}
		return res, err
	}, guard[*latchchar.SurfaceResult]{
		untraced: func(in input, _ int) (*latchchar.SurfaceResult, error) {
			return st.eng.BruteForce(context.Background(), in.cell, surfaceOpts)
		},
		diff: surfaceDiff,
	})
	if n == 0 {
		return fmt.Errorf("every traced op failed")
	}
	reportTimes(o, sum, n)
	reportCounts(o, counted, countOps, false)
	coverage(o, "surface", ms(sum.wall)/float64(n), ms(sum.calibrate+sum.grid+sum.extract)/float64(n))
	// One 8-lane EvalBlock — the sweep's call — along the start of a row.
	row := make([]latchchar.ContourPoint, surfaceOpts.Block)
	for k, h := range surface.Linspace(10e-12, 0.8e-9, surfaceOpts.N)[:len(row)] {
		row[k] = latchchar.ContourPoint{TauS: 300e-12, TauH: h}
	}
	if err := allocsPerEval(o, ops[0].in.cell, row, false); err != nil {
		return err
	}
	checkAll(cfg, o, ops, (*oracle).checkSurface)
	zeroLayers(o)
	return nil
}

// gridMatch bounds grid values in the surface guard. A rounding-level
// difference (see tauMatch) can flip one chord or bypass decision at a
// saturated grid point and move that value by ~1e-7 V, while the extracted
// contour still agrees to ~1e-24 s.
const gridMatch = 1e-6 // V

// surfaceDiff describes how two surface results differ beyond the guard
// tolerances; "" means they hold the same grid and extraction.
func surfaceDiff(a, b *latchchar.SurfaceResult) string {
	if a.Sims != b.Sims || len(a.Surface.V) != len(b.Surface.V) {
		return fmt.Sprintf("%d vs %d grid samples", a.Sims, b.Sims)
	}
	var dV, dTau float64
	for i := range a.Surface.V {
		for j := range a.Surface.V[i] {
			dV = math.Max(dV, math.Abs(a.Surface.V[i][j]-b.Surface.V[i][j]))
		}
	}
	if len(a.Contour) != len(b.Contour) {
		return fmt.Sprintf("max grid |Δh| %.3g V; %d vs %d extracted polylines", dV, len(a.Contour), len(b.Contour))
	}
	for k := range a.Contour {
		pa, pb := a.Contour[k].Pts, b.Contour[k].Pts
		if len(pa) != len(pb) {
			return fmt.Sprintf("max grid |Δh| %.3g V; polyline %d has %d vs %d points", dV, k, len(pa), len(pb))
		}
		for m := range pa {
			dTau = math.Max(dTau, math.Max(math.Abs(pa[m][0]-pb[m][0]), math.Abs(pa[m][1]-pb[m][1])))
		}
	}
	if dV <= gridMatch && dTau <= tauMatch {
		return ""
	}
	return fmt.Sprintf("max grid |Δh| %.3g V, extracted |Δτ| %.3g s", dV, dTau)
}
