package transient

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"latchchar/internal/circuit"
	"latchchar/internal/device"
	"latchchar/internal/obs"
	"latchchar/internal/solver"
)

// checkAccounts requires the counters a run published to account for its
// own LU work: one factorization per Newton iteration, none uncounted.
func checkAccounts(t *testing.T, run *obs.Run) {
	t.Helper()
	sum := run.Summary()
	iters := sum.Counters[obs.CtrNewtonIters]
	lu := sum.Counters[obs.CtrLUFactor] + sum.Counters[obs.CtrLURefactor]
	if iters == 0 || sum.Counters[obs.CtrSteps] == 0 {
		t.Fatalf("run published no work: %v", sum.Counters)
	}
	if iters != lu {
		t.Errorf("newton_iters = %d, lu_factorizations + lu_refactorizations = %d", iters, lu)
	}
}

// TestFailedRunPublishesItsWork runs a scalar transient whose Newton budget
// of one iteration gives out at the clock edge: the steps before the edge
// succeed, so the failed run has done LU work, and its counters must
// account for all of it.
func TestFailedRunPublishesItsWork(t *testing.T) {
	ckt, x0 := buildClockedInverter(t)
	g, err := UniformGrid(0, 4e-9, 400)
	if err != nil {
		t.Fatal(err)
	}
	for _, skews := range []bool{false, true} {
		run := obs.New()
		_, err := NewEngine(ckt, Options{Skews: skews, MaxNewtonIter: 1}).RunObs(run, x0, g)
		if !errors.Is(err, ErrNewtonFailure) {
			t.Fatalf("skews=%v: err = %v, want a Newton failure", skews, err)
		}
		checkAccounts(t, run)
	}
}

// cancelWave is a 1 V source that cancels its context once a device
// evaluation reaches time at, so a run stops partway through its grid.
type cancelWave struct {
	at     float64
	cancel context.CancelFunc
}

func (w cancelWave) V(t float64) float64 {
	if t >= w.at {
		w.cancel()
	}
	return 1
}

// TestCanceledRunPublishesItsWork cancels a scalar run and a block run
// partway through the grid: both return ErrCanceled and publish the work
// they did.
func TestCanceledRunPublishesItsWork(t *testing.T) {
	g, err := UniformGrid(0, 4e-9, 400)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("scalar", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ckt := circuit.New()
		in := ckt.Node("in")
		out := ckt.Node("out")
		vs, err := device.NewVSource("vin", in, circuit.Ground, cancelWave{at: 2e-9, cancel: cancel}, device.RoleSupply)
		if err != nil {
			t.Fatal(err)
		}
		ckt.AddDevice(vs)
		r, err := device.NewResistor("r", in, out, 1e3)
		if err != nil {
			t.Fatal(err)
		}
		ckt.AddDevice(r)
		c, err := device.NewCapacitor("c", out, circuit.Ground, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		ckt.AddDevice(c)
		if err := ckt.Finalize(); err != nil {
			t.Fatal(err)
		}
		run := obs.New()
		_, err = NewEngine(ckt, Options{Skews: true}).RunCtx(ctx, run, make([]float64, ckt.N()), g, nil, Share{})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		checkAccounts(t, run)
	})

	t.Run("block", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ckt, x0 := buildClockedInverter(t)
		calls := 0
		b := NewBlockEngine(ckt, Options{Method: TRAP, Skews: true}, func(int) {
			if calls++; calls == 600 {
				cancel()
			}
		})
		run := obs.New()
		_, err := b.RunCtx(ctx, run, 4, x0, g, 0, nil, Share{})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		checkAccounts(t, run)
		if n := run.Summary().Counters[obs.CtrBlockRuns]; n != 1 {
			t.Errorf("block_runs = %d, want 1", n)
		}
	})
}

// keyWave is a laneWave that rises by a further 0.5 V, over rise, from *t1:
// before *t1 it depends on the amplitude alone, so runs at one amplitude
// share a trail branch there whatever their *t1.
type keyWave struct {
	laneWave
	t1 *float64
}

func (w keyWave) V(t float64) float64 {
	v := w.laneWave.V(t)
	if t >= *w.t1 {
		v += 0.5 * math.Min((t-*w.t1)/w.rise, 1)
	}
	return v
}

// TestCompletedRunsAccountForTheirGrid runs scalar and block transients from
// x0, along an empty rest trail and from a built one, in BE and TRAP with
// Skews off and on, with shared prefixes ending before, at and after the
// trail's first state, and runs at one amplitude whose second ramps start at
// different times, which share the trail's branch when plain and scalar
// (blocks carry sensitivities, so they take no branch). Every
// completed run must account for each lane's grid steps exactly once, Steps
// + BlockSharedSteps + ResumedSteps == lanes × grid steps, and every lane
// must equal a scalar run from x0 bit for bit.
func TestCompletedRunsAccountForTheirGrid(t *testing.T) {
	const (
		t0   = 2e-9
		rise = 0.5e-9
		k0   = 15 // the trail's full state, at 1.5 ns
		kr   = 19 // its deepest state before any lane's stimulus moves at t0
	)
	g, err := UniformGrid(0, 4e-9, 40)
	if err != nil {
		t.Fatal(err)
	}
	steps := g.Len() - 1
	amps := []float64{1.0, 1.5, 2.0}
	for _, m := range []Method{BE, TRAP} {
		for _, skews := range []bool{false, true} {
			opts := Options{Method: m, Skews: skews}
			ckt, _, amp := buildLaneRC(t, t0, rise)
			x0, _, err := solver.DCOperatingPoint(ckt, 0, nil, solver.DCOptions{})
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%v skews=%v", m, skews)
			// check requires a run to account for its grid and to resume
			// each lane at grid index depth.
			check := func(what string, lanes int, st Stats, depth int) {
				t.Helper()
				if got := st.Steps + st.BlockSharedSteps + st.ResumedSteps; got != lanes*steps {
					t.Errorf("%s: %s: %d executed + %d shared + %d resumed lane-steps, want %d × %d",
						name, what, st.Steps, st.BlockSharedSteps, st.ResumedSteps, lanes, steps)
				}
				if st.ResumedSteps != lanes*depth {
					t.Errorf("%s: %s: resumed %d lane-steps, want %d × %d", name, what, st.ResumedSteps, lanes, depth)
				}
			}
			restAt := func(resumed bool) int {
				if resumed {
					return kr
				}
				return 0
			}
			same := func(what string, x []float64, a float64) {
				t.Helper()
				want := runScalarLane(t, opts, t0, rise, a, x0, g)
				for i := range want.X {
					if math.Float64bits(x[i]) != math.Float64bits(want.X[i]) {
						t.Errorf("%s: %s at amplitude %g: node %d = %v, from x0 %v", name, what, a, i, x[i], want.X[i])
						return
					}
				}
			}
			// Blocks carry sensitivities; their lanes follow the plain
			// runs' trajectory bit for bit.
			bopts := Options{Method: m, Skews: true}
			block := func(tSplit float64, cp *Checkpoint) *BlockResult {
				t.Helper()
				b := NewBlockEngine(ckt, bopts, func(lane int) { *amp = amps[lane] })
				res, err := b.RunCtx(context.Background(), nil, len(amps), x0, g, tSplit, cp, Share{Rest: t0})
				if err != nil || !res.Ok() {
					t.Fatalf("%s: block run: %v %v", name, err, res.Errs)
				}
				return res
			}

			cp := NewCheckpoint(g, k0)
			eng := NewEngine(ckt, opts)
			for i, a := range amps[:2] {
				*amp = a
				res, err := eng.RunCtx(context.Background(), nil, x0, g, cp, Share{Rest: t0})
				if err != nil {
					t.Fatal(err)
				}
				check("scalar run", 1, res.Stats, restAt(i > 0))
				same("scalar run", res.X, a)
			}
			for _, tSplit := range []float64{0, 1e-9, 1.5e-9, 1.7e-9, t0} {
				for _, c := range []*Checkpoint{nil, cp} {
					res := block(tSplit, c)
					what := fmt.Sprintf("block split at %g, trail %v", tSplit, c != nil)
					check(what, len(amps), res.Stats, restAt(c != nil))
					for lane, a := range amps {
						same(what, res.X[lane], a)
					}
				}
			}

			// A block builds a trail through lane 0, and a fresh scalar
			// engine resumes from it.
			bcp := NewCheckpoint(g, k0)
			check("saving block", len(amps), block(t0, bcp).Stats, 0)
			*amp = amps[1]
			res, err := NewEngine(ckt, opts).RunCtx(context.Background(), nil, x0, g, bcp, Share{Rest: t0})
			if err != nil {
				t.Fatal(err)
			}
			check("scalar run from a block's trail", 1, res.Stats, kr)
			same("scalar run from a block's trail", res.X, amps[1])

			// Runs at one amplitude follow one trajectory until their second
			// ramps, which start at t1s: plain scalar ones take the trail's
			// branch, on the lattice 23, 27, … past kr, up to the last grid
			// point before their t1; gradient ones and blocks resume at kr.
			t1 := new(float64)
			kckt, _ := buildRC(t, keyWave{laneWave{v: amp, t0: t0, rise: rise}, t1}, device.RoleSupply, 1e3, 1e-12)
			keyed := func(t1s ...float64) Share {
				return Share{Rest: t0, Key: math.Float64bits(*amp), Branch: slices.Min(t1s)}
			}
			fromX0 := func(what string, x []float64, t1v float64) {
				t.Helper()
				*t1 = t1v
				want, err := NewEngine(kckt, opts).Run(x0, g)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want.X {
					if math.Float64bits(x[i]) != math.Float64bits(want.X[i]) {
						t.Errorf("%s: %s at t1 = %g: node %d = %v, from x0 %v", name, what, t1v, i, x[i], want.X[i])
						return
					}
				}
			}
			branchAt := func(depth int) int {
				if skews {
					return kr
				}
				return depth
			}
			kcp := NewCheckpoint(g, k0)
			keng := NewEngine(kckt, opts)
			*amp = amps[0]
			for i, r := range []struct{ t1, depth int }{{30, 0}, {35, 27}, {33, 31}, {40, 31}, {40, 39}} {
				*t1 = g.Points()[r.t1]
				res, err := keng.RunCtx(context.Background(), nil, x0, g, kcp, keyed(*t1))
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("keyed scalar run %d", i)
				if i == 0 {
					check(what, 1, res.Stats, 0)
				} else {
					check(what, 1, res.Stats, branchAt(r.depth))
				}
				fromX0(what, res.X, *t1)
			}
			t1s := []float64{3.65e-9, 3.45e-9, 3.85e-9}
			kb := NewBlockEngine(kckt, bopts, func(lane int) { *t1 = t1s[lane] })
			bres, err := kb.RunCtx(context.Background(), nil, len(t1s), x0, g, slices.Min(t1s), kcp, keyed(t1s...))
			if err != nil || !bres.Ok() {
				t.Fatalf("%s: keyed block run: %v %v", name, err, bres.Errs)
			}
			check("keyed block run", len(t1s), bres.Stats, kr)
			for lane, t1v := range t1s {
				fromX0(fmt.Sprintf("keyed block lane %d", lane), bres.X[lane], t1v)
			}
			// A run at another amplitude drops the branch.
			*amp = amps[1]
			*t1 = 3.5e-9
			if _, err := keng.RunCtx(context.Background(), nil, x0, g, kcp, keyed(*t1)); err != nil {
				t.Fatal(err)
			}
			*amp = amps[0]
			res, err = keng.RunCtx(context.Background(), nil, x0, g, kcp, keyed(*t1))
			if err != nil {
				t.Fatal(err)
			}
			check("keyed scalar run after another key", 1, res.Stats, kr)
			fromX0("keyed scalar run after another key", res.X, *t1)
		}
	}
}

// TestCanceledRunLeavesTheTrailValid cancels a scalar run and a block run
// near 1.5 ns, halfway along their rest trail, which starts at 1 ns and
// reaches 2.96 ns: each keeps the states it saved, the next run resumes at
// the deepest of them and extends the trail, and the run after that resumes
// at its end. Every resumed run equals a run from x0 bit for bit, and every
// run, the canceled ones included, publishes one LU per Newton iteration.
func TestCanceledRunLeavesTheTrailValid(t *testing.T) {
	g, err := UniformGrid(0, 4e-9, 400)
	if err != nil {
		t.Fatal(err)
	}
	const (
		k0    = 100      // the trail's full state, at 1 ns
		until = 2.995e-9 // the runs share the grid points before it
		kEnd  = 296      // the trail's deepest state before until
	)
	// resumes checks the runs after the canceled one: the first resumes at
	// the deepest state the canceled run saved, past k0 and before 1.5 ns.
	resumes := func(t *testing.T, i, lanes, resumed int) {
		t.Helper()
		if i == 0 && (resumed <= lanes*k0 || resumed >= lanes*150 || resumed%lanes != 0) {
			t.Errorf("the run after the canceled one resumed %d lane-steps, want a state the canceled run saved", resumed)
		}
		if i == 1 && resumed != lanes*kEnd {
			t.Errorf("the second run after the canceled one resumed %d lane-steps, want %d", resumed, lanes*kEnd)
		}
	}
	same := func(t *testing.T, what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: node %d = %v, from x0 %v", what, i, got[i], want[i])
			}
		}
	}

	t.Run("scalar", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ckt := circuit.New()
		in := ckt.Node("in")
		out := ckt.Node("out")
		vs, err := device.NewVSource("vin", in, circuit.Ground, cancelWave{at: 1.5e-9, cancel: cancel}, device.RoleSupply)
		if err != nil {
			t.Fatal(err)
		}
		ckt.AddDevice(vs)
		r, err := device.NewResistor("r", in, out, 1e3)
		if err != nil {
			t.Fatal(err)
		}
		ckt.AddDevice(r)
		c, err := device.NewCapacitor("c", out, circuit.Ground, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		ckt.AddDevice(c)
		if err := ckt.Finalize(); err != nil {
			t.Fatal(err)
		}
		x0 := make([]float64, ckt.N())
		eng := NewEngine(ckt, Options{Skews: true})
		cp := NewCheckpoint(g, k0)
		run := obs.New()
		if _, err := eng.RunCtx(ctx, run, x0, g, cp, Share{Rest: until}); !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		checkAccounts(t, run)
		want, err := NewEngine(ckt, Options{Skews: true}).Run(x0, g)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			run := obs.New()
			res, err := eng.RunCtx(context.Background(), run, x0, g, cp, Share{Rest: until})
			if err != nil {
				t.Fatal(err)
			}
			resumes(t, i, 1, res.Stats.ResumedSteps)
			same(t, fmt.Sprintf("run %d after the canceled one", i+1), res.X, want.X)
			checkAccounts(t, run)
		}
	})

	t.Run("block", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ckt, x0 := buildClockedInverter(t)
		want, err := NewEngine(ckt, Options{Method: TRAP, Skews: true}).Run(x0, g)
		if err != nil {
			t.Fatal(err)
		}
		calls := 0
		b := NewBlockEngine(ckt, Options{Method: TRAP, Skews: true}, func(int) {
			if calls++; calls == 600 {
				cancel()
			}
		})
		cp := NewCheckpoint(g, k0)
		run := obs.New()
		if _, err := b.RunCtx(ctx, run, 4, x0, g, 0, cp, Share{Rest: until}); !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		checkAccounts(t, run)
		for i := 0; i < 2; i++ {
			run := obs.New()
			res, err := b.RunCtx(context.Background(), run, 4, x0, g, 0, cp, Share{Rest: until})
			if err != nil || !res.Ok() {
				t.Fatalf("%v %v", err, res.Errs)
			}
			resumes(t, i, 4, res.Stats.ResumedSteps)
			for lane := range res.X {
				same(t, fmt.Sprintf("block run %d lane %d", i+1, lane), res.X[lane], want.X)
				same(t, fmt.Sprintf("block run %d lane %d ∂x/∂τs", i+1, lane), res.Ms[lane], want.Ms)
				same(t, fmt.Sprintf("block run %d lane %d ∂x/∂τh", i+1, lane), res.Mh[lane], want.Mh)
			}
			checkAccounts(t, run)
		}
	})
}

// TestStoppedRunEndsAtItsStep stops the clocked inverter's run at the step
// where its output first falls below half the supply, from x0 and along a
// rest trail shared before that step, in BE and TRAP. The result ends at
// that step: Times, every probe and X equal the full run's up to it bit for
// bit, Steps + ResumedSteps counts the steps up to it, and the published
// counters keep one LU per Newton iteration. A trail that starts past the
// stop is never saved, and NewBlockEngine refuses a stop condition.
func TestStoppedRunEndsAtItsStep(t *testing.T) {
	ckt, x0 := buildClockedInverter(t)
	out, err := ckt.LookupNode("out")
	if err != nil {
		t.Fatal(err)
	}
	g, err := UniformGrid(0, 4e-9, 400)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]circuit.UnknownID, ckt.N())
	for i := range all {
		all[i] = circuit.UnknownID(i)
	}
	var tLast float64
	stop := func(_, t float64, _, x []float64) bool {
		tLast = t
		return x[out] < 1.25
	}
	same := func(what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
			}
		}
	}
	for _, m := range []Method{BE, TRAP} {
		full, err := NewEngine(ckt, Options{Method: m, Probes: all}).Run(x0, g)
		if err != nil {
			t.Fatal(err)
		}
		k := 1
		for full.Probes[out][k] >= 1.25 {
			k++
		}
		t.Logf("%v: the output crosses at step %d of %d", m, k, g.Len()-1)
		xAt := make([]float64, ckt.N())
		for i := range xAt {
			xAt[i] = full.Probes[i][k]
		}

		run := obs.New()
		res, err := NewEngine(ckt, Options{Method: m, Probes: all, Stop: stop}).RunObs(run, x0, g)
		if err != nil {
			t.Fatal(err)
		}
		same(m.String()+" Times", res.Times, g.Points()[:k+1])
		for i := range all {
			same(fmt.Sprintf("%v probe %d", m, i), res.Probes[i], full.Probes[i][:k+1])
		}
		same(m.String()+" X", res.X, xAt)
		if tLast != res.Times[k] {
			t.Errorf("%v: the last stop check saw t = %g, the run ends at %g", m, tLast, res.Times[k])
		}
		if st := res.Stats; st.Steps != k || st.ResumedSteps != 0 {
			t.Errorf("%v: %d executed + %d resumed steps, want %d + 0", m, st.Steps, st.ResumedSteps, k)
		}
		checkAccounts(t, run)

		// The first run along an empty trail that starts before the stop
		// saves its states up to the step before it, the next resumes at the
		// deepest of them; a trail that starts past the stop stays empty.
		until := g.Points()[k]
		for _, cpk := range []int{k / 2, k + 1} {
			cp := NewCheckpoint(g, cpk)
			eng := NewEngine(ckt, Options{Method: m, Stop: stop})
			for i := 0; i < 2; i++ {
				run := obs.New()
				res, err := eng.RunCtx(context.Background(), run, x0, g, cp, Share{Rest: until})
				if err != nil {
					t.Fatal(err)
				}
				resumed := 0
				if i == 1 && cpk < k {
					resumed = cpk + trailEvery*((k-1-cpk)/trailEvery)
				}
				if st := res.Stats; st.Steps+st.ResumedSteps != k || st.ResumedSteps != resumed {
					t.Errorf("%v checkpoint %d run %d: %d executed + %d resumed steps, want %d with %d resumed",
						m, cpk, i, st.Steps, st.ResumedSteps, k, resumed)
				}
				same(fmt.Sprintf("%v checkpoint %d run %d X", m, cpk, i), res.X, xAt)
				checkAccounts(t, run)
			}
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("NewBlockEngine accepted a stop condition")
		}
	}()
	NewBlockEngine(ckt, Options{Skews: true, Stop: stop}, nil)
}

// checkSplit requires a run's sampled layer times to lie within its wall
// time, and to read zero when the run was not timed. A timed run that
// executed a step sampled its first, so its device and LU times are
// positive, and its sensitivity time is positive exactly when it computed
// sensitivities on that step.
func checkSplit(t *testing.T, what string, st Stats, timed, sens bool) {
	t.Helper()
	if st.LU < 0 || st.DeviceEval < 0 || st.Sens < 0 || st.LU+st.DeviceEval+st.Sens > st.Wall {
		t.Errorf("%s: LU %v + device %v + sensitivities %v exceed wall %v", what, st.LU, st.DeviceEval, st.Sens, st.Wall)
	}
	switch {
	case !timed:
		if st.LU != 0 || st.DeviceEval != 0 || st.Sens != 0 {
			t.Errorf("%s: untimed run reports LU %v, device %v, sensitivities %v", what, st.LU, st.DeviceEval, st.Sens)
		}
	case st.Steps > 0:
		if st.LU <= 0 || st.DeviceEval <= 0 || (st.Sens > 0) != sens {
			t.Errorf("%s: %d steps timed as LU %v, device %v, sensitivities %v (sensitivities computed: %v)",
				what, st.Steps, st.LU, st.DeviceEval, st.Sens, sens)
		}
	}
}

// TestSampledLayerTimesStayWithinWall runs scalar transients, with Skews off
// and on, and block transients in BE and TRAP over a grid shorter than the
// sampling stride and one many strides long, with and without an obs run,
// and a failed and a canceled run of each kind: every run's LU + DeviceEval
// + Sens stays within its Wall, and without an obs run all three read zero.
func TestSampledLayerTimesStayWithinWall(t *testing.T) {
	ckt, x0 := buildClockedInverter(t)
	short, err := UniformGrid(0, 0.8e-9, LayerSampleStride/2)
	if err != nil {
		t.Fatal(err)
	}
	long, err := UniformGrid(0, 4e-9, 400)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, g := range []Grid{short, long} {
		for _, m := range []Method{BE, TRAP} {
			for _, skews := range []bool{false, true} {
				opts := Options{Method: m, Skews: skews}
				for _, timed := range []bool{false, true} {
					var run *obs.Run
					if timed {
						run = obs.New()
					}
					what := fmt.Sprintf("%d steps, %v, skews=%v, timed=%v", g.Len()-1, m, skews, timed)
					res, err := NewEngine(ckt, opts).RunObs(run, x0, g)
					if err != nil {
						t.Fatal(err)
					}
					checkSplit(t, "scalar run, "+what, res.Stats, timed, skews)
					if !skews {
						continue // blocks carry sensitivities
					}
					bres, err := NewBlockEngine(ckt, opts, nil).RunCtx(ctx, run, 3, x0, g, 0.5e-9, nil, Share{})
					if err != nil || !bres.Ok() {
						t.Fatalf("block run, %s: %v %v", what, err, bres.Errs)
					}
					checkSplit(t, "block run, "+what, bres.Stats, timed, true)
				}
			}
		}
	}

	// Failed runs: a one-iteration Newton budget gives out at the clock
	// edge, after steps that succeeded with their sensitivities, or on the
	// only step of a grid that crosses the edge in one step, which is then
	// the whole sample.
	edge, err := UniformGrid(0.9e-9, 1.3e-9, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, timed := range []bool{false, true} {
		var run *obs.Run
		if timed {
			run = obs.New()
		}
		opts := Options{Skews: true, MaxNewtonIter: 1}
		for _, c := range []struct {
			what string
			g    Grid
			sens bool
		}{{"failed", long, true}, {"only step failed", edge, false}} {
			what := fmt.Sprintf("%s, timed=%v", c.what, timed)
			eng := NewEngine(ckt, opts)
			if _, err := eng.RunObs(run, x0, c.g); !errors.Is(err, ErrNewtonFailure) {
				t.Fatalf("scalar run, %s: err = %v, want a Newton failure", what, err)
			}
			checkSplit(t, "scalar run, "+what, eng.stats, timed, c.sens)
			bres, err := NewBlockEngine(ckt, opts, nil).RunCtx(ctx, run, 3, x0, c.g, 0, nil, Share{})
			if err != nil || bres.Ok() {
				t.Fatalf("block run, %s: err %v, lanes %v; want every lane failed", what, err, bres.Errs)
			}
			checkSplit(t, "block run, "+what, bres.Stats, timed, c.sens)
		}
	}

	// Canceled runs: the scalar run's source cancels at 2 ns, the block's
	// lane hook on its 600th call.
	for _, timed := range []bool{false, true} {
		var run *obs.Run
		if timed {
			run = obs.New()
		}
		cctx, cancel := context.WithCancel(ctx)
		rc, _ := buildRC(t, cancelWave{at: 2e-9, cancel: cancel}, device.RoleSupply, 1e3, 1e-12)
		eng := NewEngine(rc, Options{Method: TRAP, Skews: true})
		if _, err := eng.RunCtx(cctx, run, make([]float64, rc.N()), long, nil, Share{}); !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		checkSplit(t, fmt.Sprintf("canceled scalar run, timed=%v", timed), eng.stats, timed, true)
		cancel()

		cctx, cancel = context.WithCancel(ctx)
		calls := 0
		b := NewBlockEngine(ckt, Options{Skews: true}, func(int) {
			if calls++; calls == 600 {
				cancel()
			}
		})
		lanes := b.lanesFor(4)
		attach(run, lanes...)
		_, st, err := b.run(cctx, lanes, x0, long, 0, (*Checkpoint)(nil).open(long.Points(), Share{}, false))
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		checkSplit(t, fmt.Sprintf("canceled block run, timed=%v", timed), st, timed, true)
		cancel()
	}
}

// TestShareNeverExceedsWall: the layer split rounds each part down, so
// parts that fill their whole, at any magnitude, add up to at most Wall.
func TestShareNeverExceedsWall(t *testing.T) {
	for _, c := range []struct{ wall, a, b, c time.Duration }{
		{1000, 1, 1, 1},
		{999_999_999, 333_333_333, 333_333_333, 333_333_334},
		{math.MaxInt64, math.MaxInt64 / 3, math.MaxInt64 / 3, math.MaxInt64 - 2*(math.MaxInt64/3)},
		{7, 5, 0, 2},
	} {
		whole := c.a + c.b + c.c
		sum := share(c.wall, c.a, whole) + share(c.wall, c.b, whole) + share(c.wall, c.c, whole)
		if sum > c.wall || sum < c.wall-3 {
			t.Errorf("shares of %v in parts %v, %v, %v add up to %v", c.wall, c.a, c.b, c.c, sum)
		}
	}
	if got := share(time.Second, 0, 0); got != 0 {
		t.Errorf("a sample of no step splits off %v", got)
	}
}
