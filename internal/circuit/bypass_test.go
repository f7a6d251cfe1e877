package circuit

import (
	"math"
	"testing"
)

// bypassStubG is stubG with eval counting and the StateOnlyDevice contract:
// its stamps depend only on the voltages of a and b.
type bypassStubG struct {
	stubG
	evals int
}

func (s *bypassStubG) Eval(ctx *EvalCtx) {
	s.evals++
	s.stubG.Eval(ctx)
}

func (s *bypassStubG) BypassTerminals() []UnknownID { return []UnknownID{s.a, s.b} }

func buildBypassPair(t *testing.T) (*Circuit, *Eval, *bypassStubG, []float64) {
	t.Helper()
	c := New()
	a, b := c.Node("a"), c.Node("b")
	d := &bypassStubG{stubG: stubG{name: "g1", a: a, b: b, g: 1e-3}}
	c.AddDevice(d)
	c.AddDevice(&stubG{name: "g2", a: b, b: Ground, g: 2e-3})
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	ev := c.NewEval()
	ev.EnableBypass()
	return c, ev, d, make([]float64, c.N())
}

// TestBypassReplaysWithinTolerance checks the tape lifecycle: record on the
// first assembly, replay with identical results while terminals sit inside
// vtol of the snapshot, re-record once any terminal escapes.
func TestBypassReplaysWithinTolerance(t *testing.T) {
	_, ev, d, x := buildBypassPair(t)
	x[0], x[1] = 1.0, 0.25

	ev.At(x, 0)
	if d.evals != 1 || ev.Bypasses != 0 {
		t.Fatalf("first assembly: evals=%d bypasses=%d", d.evals, ev.Bypasses)
	}
	refF := append([]float64(nil), ev.F...)
	refG := append([]float64(nil), ev.G.Val...)

	// Nudge a watched terminal by less than vtol: replayed, same stamps.
	x[0] += 5e-7
	ev.At(x, 0)
	if d.evals != 1 || ev.Bypasses != 1 {
		t.Fatalf("within-vtol assembly: evals=%d bypasses=%d", d.evals, ev.Bypasses)
	}
	// F carries the per-node gmin leak, which tracks x even under replay;
	// compare just above gmin scale.
	for i := range refF {
		if math.Abs(ev.F[i]-refF[i]) > 1e-10 {
			t.Errorf("F[%d] = %g, want replayed %g", i, ev.F[i], refF[i])
		}
	}
	for i := range refG {
		if ev.G.Val[i] != refG[i] {
			t.Errorf("G.Val[%d] = %g, want replayed %g", i, ev.G.Val[i], refG[i])
		}
	}

	// Escape the tolerance: the device re-evaluates and the stamps track x.
	x[0] = 2.0
	ev.At(x, 0)
	if d.evals != 2 || ev.Bypasses != 1 {
		t.Fatalf("outside-vtol assembly: evals=%d bypasses=%d", d.evals, ev.Bypasses)
	}
	wantI := 1e-3 * (x[0] - x[1])
	if math.Abs(ev.F[0]-wantI) > 1e-10 {
		t.Errorf("F[0] = %g after re-record, want %g", ev.F[0], wantI)
	}
}

// TestBypassComparesAgainstSnapshot pins the boundedness property: many
// sub-vtol drifts in the same direction accumulate past vtol relative to
// the recording snapshot and must trigger a re-evaluation — comparing
// against the previous assembly instead would let the error grow without
// bound.
func TestBypassComparesAgainstSnapshot(t *testing.T) {
	_, ev, d, x := buildBypassPair(t)
	x[0] = 1.0
	ev.At(x, 0)
	for i := 0; i < 4; i++ {
		x[0] += 4e-7 // each move < vtol vs the previous eval
		ev.At(x, 0)
	}
	// Total drift 1.6 µV > vtol: at least one assembly re-evaluated.
	if d.evals < 2 {
		t.Errorf("device evaluated %d times; cumulative drift past vtol must re-record", d.evals)
	}
}

// TestHoldBypassForcesExactEvaluation checks the livelock escape used by the
// transient engine: held assemblies run the real models (and leave the tape
// untouched), resumed assemblies may replay again.
func TestHoldBypassForcesExactEvaluation(t *testing.T) {
	_, ev, d, x := buildBypassPair(t)
	x[0] = 1.0
	ev.At(x, 0)

	ev.HoldBypass(true)
	ev.At(x, 0)
	ev.At(x, 0)
	if d.evals != 3 || ev.Bypasses != 0 {
		t.Fatalf("held assemblies: evals=%d bypasses=%d, want exact evaluation", d.evals, ev.Bypasses)
	}

	ev.HoldBypass(false)
	ev.At(x, 0)
	if d.evals != 3 || ev.Bypasses != 1 {
		t.Fatalf("resumed assembly: evals=%d bypasses=%d, want replay", d.evals, ev.Bypasses)
	}
}
