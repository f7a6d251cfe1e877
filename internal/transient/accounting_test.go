package transient

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

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
		_, err = NewEngine(ckt, Options{Skews: true}).RunCtx(ctx, run, make([]float64, ckt.N()), g, nil)
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
		b := NewBlockEngine(ckt, Options{Method: TRAP, Skews: true}, 4, func(int) {
			if calls++; calls == 600 {
				cancel()
			}
		})
		run := obs.New()
		_, err := b.RunCtx(ctx, run, x0, g, 0, nil)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		checkAccounts(t, run)
		if n := run.Summary().Counters[obs.CtrBlockRuns]; n != 1 {
			t.Errorf("block_runs = %d, want 1", n)
		}
	})
}

// TestCompletedRunsAccountForTheirGrid runs scalar and block transients from
// x0, into an empty checkpoint and from a saved one, in BE and TRAP with
// Skews off and on, with shared prefixes ending before, at and after the
// checkpoint. Every completed run must account for each lane's grid steps
// exactly once, Steps + BlockSharedSteps + ResumedSteps == lanes × grid
// steps, and every lane must equal a scalar run from x0 bit for bit.
func TestCompletedRunsAccountForTheirGrid(t *testing.T) {
	const (
		t0   = 2e-9
		rise = 0.5e-9
		k    = 15 // the checkpoint, at 1.5 ns: before any lane's stimulus moves
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
			check := func(what string, lanes int, st Stats, resumed bool) {
				t.Helper()
				if got := st.Steps + st.BlockSharedSteps + st.ResumedSteps; got != lanes*steps {
					t.Errorf("%s: %s: %d executed + %d shared + %d resumed lane-steps, want %d × %d",
						name, what, st.Steps, st.BlockSharedSteps, st.ResumedSteps, lanes, steps)
				}
				want := 0
				if resumed {
					want = lanes * k
				}
				if st.ResumedSteps != want {
					t.Errorf("%s: %s: resumed %d lane-steps, want %d", name, what, st.ResumedSteps, want)
				}
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
			block := func(tSplit float64, cp *Checkpoint) *BlockResult {
				t.Helper()
				b := NewBlockEngine(ckt, opts, len(amps), func(lane int) { *amp = amps[lane] })
				res, err := b.RunCtx(context.Background(), nil, x0, g, tSplit, cp)
				if err != nil || !res.Ok() {
					t.Fatalf("%s: block run: %v %v", name, err, res.Errs)
				}
				return res
			}

			cp := NewCheckpoint(k)
			eng := NewEngine(ckt, opts)
			for i, a := range amps[:2] {
				*amp = a
				res, err := eng.RunCtx(context.Background(), nil, x0, g, cp)
				if err != nil {
					t.Fatal(err)
				}
				check("scalar run", 1, res.Stats, i > 0)
				same("scalar run", res.X, a)
			}
			for _, tSplit := range []float64{0, 1e-9, 1.5e-9, 1.7e-9, t0} {
				for _, c := range []*Checkpoint{nil, cp} {
					res := block(tSplit, c)
					what := fmt.Sprintf("block split at %g, checkpoint %v", tSplit, c != nil)
					check(what, len(amps), res.Stats, c != nil)
					for lane, a := range amps {
						same(what, res.X[lane], a)
					}
				}
			}

			// A block saves a checkpoint through lane 0, and a fresh scalar
			// engine resumes from it.
			bcp := NewCheckpoint(k)
			check("saving block", len(amps), block(t0, bcp).Stats, false)
			*amp = amps[1]
			res, err := NewEngine(ckt, opts).RunCtx(context.Background(), nil, x0, g, bcp)
			if err != nil {
				t.Fatal(err)
			}
			check("scalar run from a block's checkpoint", 1, res.Stats, true)
			same("scalar run from a block's checkpoint", res.X, amps[1])
		}
	}
}

// TestCanceledRunSavesNoCheckpoint cancels a scalar run and a block run
// halfway to their checkpoint: neither saves it, so the next run integrates
// from x0 and builds it, and the run after that resumes. Every run, the
// canceled ones included, publishes one LU per Newton iteration.
func TestCanceledRunSavesNoCheckpoint(t *testing.T) {
	g, err := UniformGrid(0, 4e-9, 400)
	if err != nil {
		t.Fatal(err)
	}
	const k = 300 // 3 ns; the runs are canceled near 1.5 ns

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
		cp := NewCheckpoint(k)
		run := obs.New()
		if _, err := eng.RunCtx(ctx, run, x0, g, cp); !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		checkAccounts(t, run)
		for i, want := range []int{0, k} {
			run := obs.New()
			res, err := eng.RunCtx(context.Background(), run, x0, g, cp)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.ResumedSteps != want {
				t.Errorf("run %d after the canceled one resumed %d steps, want %d", i+1, res.Stats.ResumedSteps, want)
			}
			checkAccounts(t, run)
		}
	})

	t.Run("block", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ckt, x0 := buildClockedInverter(t)
		calls := 0
		b := NewBlockEngine(ckt, Options{Method: TRAP, Skews: true}, 4, func(int) {
			if calls++; calls == 600 {
				cancel()
			}
		})
		cp := NewCheckpoint(k)
		run := obs.New()
		if _, err := b.RunCtx(ctx, run, x0, g, 0, cp); !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		checkAccounts(t, run)
		for i, want := range []int{0, 4 * k} {
			run := obs.New()
			res, err := b.RunCtx(context.Background(), run, x0, g, 0, cp)
			if err != nil || !res.Ok() {
				t.Fatalf("%v %v", err, res.Errs)
			}
			if res.Stats.ResumedSteps != want {
				t.Errorf("block run %d after the canceled one resumed %d lane-steps, want %d", i+1, res.Stats.ResumedSteps, want)
			}
			checkAccounts(t, run)
		}
	})
}
