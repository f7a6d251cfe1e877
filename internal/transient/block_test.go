package transient

import (
	"context"
	"math"
	"strings"
	"testing"

	"latchchar/internal/circuit"
	"latchchar/internal/device"
	"latchchar/internal/obs"
	"latchchar/internal/solver"
)

// laneWave is a source whose value the block engine's setLane hook swaps
// per lane: constant 0 until t0, then a linear ramp of duration rise up to
// the lane's amplitude *v. Before t0 the output is amplitude-independent,
// so lanes share the exact prefix up to t0.
type laneWave struct {
	v        *float64
	t0, rise float64
}

func (w laneWave) V(t float64) float64 {
	switch {
	case t < w.t0:
		return 0
	case t >= w.t0+w.rise:
		return *w.v
	default:
		return *w.v * (t - w.t0) / w.rise
	}
}

// buildLaneRC creates src -- R -- out -- C -- gnd driven by a laneWave and
// returns the circuit, the output node and the amplitude cell setLane swaps.
func buildLaneRC(t *testing.T, t0, rise float64) (*circuit.Circuit, circuit.UnknownID, *float64) {
	t.Helper()
	amp := new(float64)
	ckt, out := buildRC(t, laneWave{v: amp, t0: t0, rise: rise}, device.RoleSupply, 1e3, 1e-12)
	return ckt, out, amp
}

// runScalarLane integrates the same circuit with a single-lane engine at one
// amplitude, as the reference for the block lanes.
func runScalarLane(t *testing.T, opts Options, t0, rise, amp float64, x0 []float64, g Grid) *Result {
	t.Helper()
	ckt, _, a := buildLaneRC(t, t0, rise)
	*a = amp
	res, err := NewEngine(ckt, opts).Run(x0, g)
	if err != nil {
		t.Fatalf("scalar lane amp=%g: %v", amp, err)
	}
	return res
}

// TestBlockSharedPrefixMatchesScalar advances four lanes whose stimuli are
// identical until t0 and diverge after: the block result must match four
// independent scalar integrations bit for bit, the shared prefix must
// actually have saved lane-steps, and the fresh block must have made one
// pivot analysis — lane 0's, which the other lanes refactorize over.
func TestBlockSharedPrefixMatchesScalar(t *testing.T) {
	const (
		t0   = 2e-9
		rise = 0.5e-9
	)
	amps := []float64{1.0, 1.5, 2.0, 2.5}
	opts := Options{Skews: true}

	ckt, _, amp := buildLaneRC(t, t0, rise)
	x0, _, err := solver.DCOperatingPoint(ckt, 0, nil, solver.DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := UniformGrid(0, 4e-9, 40)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBlockEngine(ckt, opts, func(lane int) { *amp = amps[lane] })
	run := obs.New()
	res, err := b.RunCtx(context.Background(), run, len(amps), x0, g, t0, nil, Share{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("lane errors: %v", res.Errs)
	}
	if n := run.Counter(obs.CtrLUFactor); n != 1 {
		t.Errorf("lu_factorizations = %d on a fresh %d-lane block, want 1", n, len(amps))
	}
	if res.Stats.BlockSharedSteps == 0 {
		t.Error("no lane-steps saved despite a 2 ns shared prefix")
	}
	if res.Stats.BlockPeelOffs != 0 {
		t.Errorf("%d peel-offs on a clean block", res.Stats.BlockPeelOffs)
	}
	for lane, a := range amps {
		want := runScalarLane(t, opts, t0, rise, a, x0, g)
		for i := range want.X {
			if math.Float64bits(res.X[lane][i]) != math.Float64bits(want.X[i]) {
				t.Errorf("lane %d node %d: %v, scalar %v", lane, i, res.X[lane][i], want.X[i])
			}
		}
	}
	t.Logf("shared steps %d, factorizations %d", res.Stats.BlockSharedSteps, res.Stats.Factorizations)
}

// TestBlockEngineServesEveryLaneCount runs one block engine at 2, 4, 3 and
// 1 lanes: a K-lane run steps the first K lanes, built on first use, and
// every lane equals a scalar run from x0 bit for bit whatever the engine ran
// before. The whole sequence makes one pivot analysis, lane 0's.
func TestBlockEngineServesEveryLaneCount(t *testing.T) {
	const (
		t0   = 2e-9
		rise = 0.5e-9
	)
	amps := []float64{1.0, 1.5, 2.0, 2.5}
	opts := Options{Skews: true}
	ckt, _, amp := buildLaneRC(t, t0, rise)
	x0, _, err := solver.DCOperatingPoint(ckt, 0, nil, solver.DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := UniformGrid(0, 4e-9, 40)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBlockEngine(ckt, opts, func(lane int) { *amp = amps[lane] })
	if _, err := b.Run(0, x0, g, t0); err == nil {
		t.Error("a zero-lane block run succeeded")
	}
	built := 0
	for _, k := range []int{2, 4, 3, 1} {
		res, err := b.Run(k, x0, g, t0)
		if err != nil || !res.Ok() {
			t.Fatalf("%d lanes: %v %v", k, err, res.Errs)
		}
		if len(res.X) != k {
			t.Fatalf("%d-lane run returned %d lanes", k, len(res.X))
		}
		built = max(built, k)
		if len(b.lanes) != built {
			t.Errorf("after a %d-lane run the engine holds %d lanes, want %d", k, len(b.lanes), built)
		}
		for lane := 0; lane < k; lane++ {
			want := runScalarLane(t, opts, t0, rise, amps[lane], x0, g)
			for i := range want.X {
				if math.Float64bits(res.X[lane][i]) != math.Float64bits(want.X[i]) ||
					math.Float64bits(res.Ms[lane][i]) != math.Float64bits(want.Ms[i]) ||
					math.Float64bits(res.Mh[lane][i]) != math.Float64bits(want.Mh[i]) {
					t.Fatalf("%d lanes: lane %d node %d differs from the scalar run", k, lane, i)
				}
			}
		}
	}
	if fresh, _ := luCounts(b.lanes...); fresh != 1 {
		t.Errorf("%d pivot analyses over the sequence, want 1", fresh)
	}
}

// TestBlockEngineNeedsSkews: blocks carry sensitivities, and plain
// transients run one lane at a time on Engine, so NewBlockEngine refuses
// options without Skews.
func TestBlockEngineNeedsSkews(t *testing.T) {
	ckt, _, _ := buildLaneRC(t, 1e-9, 0.5e-9)
	defer func() {
		if recover() == nil {
			t.Error("NewBlockEngine accepted plain options")
		}
	}()
	NewBlockEngine(ckt, Options{Method: TRAP}, nil)
}

// TestBlockPeelOff poisons one lane's stimulus with NaN: that lane must fail
// with a per-lane error (counted as a peel-off) while the remaining lanes
// converge to their scalar references' states bit for bit. Poisoning lane 0
// additionally checks that the lane the shared prefix ran on can peel off
// after the fork.
func TestBlockPeelOff(t *testing.T) {
	const (
		t0   = 1e-9
		rise = 0.5e-9
	)
	for _, poisoned := range []int{2, 0} {
		amps := []float64{1.0, 1.5, 2.0, 2.5}
		amps[poisoned] = math.NaN()
		opts := Options{Skews: true}

		ckt, _, amp := buildLaneRC(t, t0, rise)
		x0, _, err := solver.DCOperatingPoint(ckt, 0, nil, solver.DCOptions{})
		if err != nil {
			t.Fatal(err)
		}
		g, err := UniformGrid(0, 3e-9, 30)
		if err != nil {
			t.Fatal(err)
		}
		b := NewBlockEngine(ckt, opts, func(lane int) { *amp = amps[lane] })
		res, err := b.Run(len(amps), x0, g, t0)
		if err != nil {
			t.Fatalf("poisoned lane %d must not fail the block: %v", poisoned, err)
		}
		if res.Errs[poisoned] == nil {
			t.Fatalf("poisoned lane %d converged on a NaN stimulus", poisoned)
		}
		if !strings.Contains(res.Errs[poisoned].Error(), "lane") {
			t.Errorf("lane error does not name the lane: %v", res.Errs[poisoned])
		}
		if res.Stats.BlockPeelOffs != 1 {
			t.Errorf("peel-offs = %d, want 1", res.Stats.BlockPeelOffs)
		}
		for lane, a := range amps {
			if lane == poisoned {
				continue
			}
			if res.Errs[lane] != nil {
				t.Errorf("healthy lane %d poisoned by its neighbor: %v", lane, res.Errs[lane])
				continue
			}
			want := runScalarLane(t, opts, t0, rise, a, x0, g)
			for i := range want.X {
				if math.Float64bits(res.X[lane][i]) != math.Float64bits(want.X[i]) {
					t.Errorf("lane %d node %d after peel-off: %v, scalar %v", lane, i, res.X[lane][i], want.X[i])
				}
			}
		}
	}
}

// TestBlockDegenerateFullyShared runs a block whose lanes never differ
// (tSplit = +Inf): the shared prefix covers the whole grid and every lane
// must return the reference trajectory.
func TestBlockDegenerateFullyShared(t *testing.T) {
	ckt, _, amp := buildLaneRC(t, 1e-9, 0.5e-9)
	x0, _, err := solver.DCOperatingPoint(ckt, 0, nil, solver.DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := UniformGrid(0, 3e-9, 30)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBlockEngine(ckt, Options{Skews: true}, func(int) { *amp = 1.0 })
	res, err := b.Run(3, x0, g, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("lane errors: %v", res.Errs)
	}
	for lane := 1; lane < 3; lane++ {
		for i := range res.X[0] {
			if res.X[lane][i] != res.X[0][i] {
				t.Fatalf("fully shared lane %d diverged from the reference", lane)
			}
		}
	}
	// Only lane 0 executes, so every executed step saves the other two lanes'
	// steps.
	if res.Stats.BlockSharedSteps != 2*res.Stats.Steps {
		t.Errorf("shared steps %d with %d executed lane-steps; the whole grid should have been shared",
			res.Stats.BlockSharedSteps, res.Stats.Steps)
	}
}

// TestBlockRunAllocsIndependentOfGrid pins the steady-state lockstep loop at
// zero allocations per step: a warm block run allocates only its per-run
// result, so doubling the grid must leave the allocation count unchanged.
func TestBlockRunAllocsIndependentOfGrid(t *testing.T) {
	const (
		lanes = 8
		t0    = 1e-9
	)
	amps := make([]float64, lanes)
	for i := range amps {
		amps[i] = 1 + 0.25*float64(i)
	}
	ckt, _, amp := buildLaneRC(t, t0, 0.5e-9)
	x0, _, err := solver.DCOperatingPoint(ckt, 0, nil, solver.DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBlockEngine(ckt, Options{Skews: true}, func(lane int) { *amp = amps[lane] })
	allocs := func(steps int) float64 {
		g, err := UniformGrid(0, 3e-9, steps)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			res, err := b.Run(lanes, x0, g, t0)
			if err != nil || !res.Ok() {
				t.Fatalf("block run on %d steps: %v %v", steps, err, res.Errs)
			}
		}
		run() // warm: first factorizations
		return testing.AllocsPerRun(5, run)
	}
	if n, n2 := allocs(60), allocs(120); n != n2 {
		t.Errorf("warm %d-lane block run allocates %v times on 60 steps and %v on 120: the lockstep loop allocates per step",
			lanes, n, n2)
	}
}
