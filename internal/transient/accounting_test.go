package transient

import (
	"context"
	"errors"
	"testing"

	"latchchar/internal/circuit"
	"latchchar/internal/device"
	"latchchar/internal/obs"
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
		_, err = NewEngine(ckt, Options{Skews: true}).RunCtx(ctx, run, make([]float64, ckt.N()), g)
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
		_, err := b.RunCtx(ctx, run, x0, g, 0)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		checkAccounts(t, run)
		if n := run.Summary().Counters[obs.CtrBlockRuns]; n != 1 {
			t.Errorf("block_runs = %d, want 1", n)
		}
	})
}
