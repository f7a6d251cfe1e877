package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"
)

// bundled makes an analytic problem a BlockProblem whose EvalGradBlock
// loops EvalGrad lane by lane. It logs every evaluated point with the path
// it took, and calls cancel once the log reaches cancelAt entries.
type bundled struct {
	Problem
	log      []evalRec
	cancelAt int
	cancel   context.CancelFunc
}

type evalRec struct {
	s, h  float64
	block bool
}

func (b *bundled) record(s, h float64, block bool) {
	b.log = append(b.log, evalRec{s, h, block})
	if b.cancel != nil && len(b.log) == b.cancelAt {
		b.cancel()
	}
}

func (b *bundled) EvalGrad(s, h float64) (float64, float64, float64, error) {
	b.record(s, h, false)
	return b.Problem.EvalGrad(s, h)
}

func (b *bundled) EvalGradBlock(tauS, tauH []float64) (h, dhdS, dhdH []float64, errs []error, err error) {
	n := len(tauS)
	h, dhdS, dhdH, errs = make([]float64, n), make([]float64, n), make([]float64, n), make([]error, n)
	for i := range tauS {
		b.record(tauS[i], tauH[i], true)
		h[i], dhdS[i], dhdH[i], errs[i] = b.Problem.EvalGrad(tauS[i], tauH[i])
	}
	return h, dhdS, dhdH, errs, nil
}

func (b *bundled) blockEvals() int {
	n := 0
	for _, r := range b.log {
		if r.block {
			n++
		}
	}
	return n
}

var errFar = errors.New("evaluation far from the curve")

// fragile is the unit circle with an evaluation that fails where |h|
// exceeds limit, the way a circuit transient fails far from the latching
// boundary: predictions too far off the curve cannot be corrected.
type fragile struct {
	circle
	limit float64
}

func (f *fragile) EvalGrad(s, h float64) (float64, float64, float64, error) {
	v, gs, gh, _ := f.circle.EvalGrad(s, h)
	if math.Abs(v) > f.limit {
		return 0, 0, 0, errFar
	}
	return v, gs, gh, nil
}

func TestTraceBlockCircleStaysOnCurveInOrderAndCloses(t *testing.T) {
	p := &bundled{Problem: &circle{r: 1}}
	ct, err := TraceContour(p, 1.0, 0.0, TraceOptions{
		Step:      0.12,
		MaxPoints: 200,
		Block:     4,
		MPNR:      MPNROptions{MaxStep: 10, HTol: 1e-9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.blockEvals() == 0 {
		t.Fatal("no bundle went through EvalGradBlock")
	}
	if !ct.Closed {
		t.Errorf("closed curve not detected after %d points", len(ct.Points))
	}
	// The seed (1, 0) has tangent (0, 1): the trace runs counterclockwise,
	// so contour order is a strictly increasing polar angle.
	turned := 0.0
	for i, pt := range ct.Points {
		if r := math.Hypot(pt.TauS, pt.TauH); math.Abs(r-1) > 1e-6 {
			t.Errorf("point %d off the circle: radius %v", i, r)
		}
		if i == 0 {
			continue
		}
		prev := ct.Points[i-1]
		d := math.Remainder(math.Atan2(pt.TauH, pt.TauS)-math.Atan2(prev.TauH, prev.TauS), 2*math.Pi)
		if d <= 0 {
			t.Errorf("point %d out of contour order: angle step %v", i, d)
		}
		turned += d
	}
	if turned < 1.5*math.Pi || turned > 2*math.Pi {
		t.Errorf("trace turned %v rad before closing, want one lap", turned)
	}
}

func TestTraceBlockHyperbolaRespectsBoundsInOrder(t *testing.T) {
	p := &bundled{Problem: &hyperbola{a: 0.1, b: 0.05, c: 0.01}}
	bounds := Rect{MinS: 0.12, MaxS: 0.5, MinH: 0.06, MaxH: 0.5}
	ct, err := TraceContour(p, 0.2, 0.2, TraceOptions{
		Step:           0.01,
		MaxPoints:      500,
		Bounds:         bounds,
		BothDirections: true,
		Block:          4,
		MPNR:           MPNROptions{MaxStep: 10, HTol: 1e-12},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.blockEvals() == 0 {
		t.Fatal("no bundle went through EvalGradBlock")
	}
	for i, pt := range ct.Points {
		if !bounds.Contains(pt.TauS, pt.TauH) {
			t.Errorf("point %d outside bounds: (%v, %v)", i, pt.TauS, pt.TauH)
		}
		if want := 0.01/(pt.TauS-0.1) + 0.05; math.Abs(pt.TauH-want) > 1e-9 {
			t.Errorf("point %d off the curve: τh=%v want %v", i, pt.TauH, want)
		}
		// Both arms join at the seed in one order along the curve: τs
		// strictly monotone, the same way throughout.
		if i >= 2 && (pt.TauS-ct.Points[i-1].TauS)*(ct.Points[i-1].TauS-ct.Points[i-2].TauS) <= 0 {
			t.Errorf("point %d out of contour order", i)
		}
	}
	first, last := ct.Points[0], ct.Points[len(ct.Points)-1]
	if span := math.Abs(last.TauS - first.TauS); span < 0.2 {
		t.Errorf("curve span too small: %v", span)
	}
}

// TestTraceEmptyBundleRetriesOneLaneAtHalfStep: every lane of the first
// bundle is too far off the circle to correct, so the cycle accepts nothing
// and retries one lane at α/2 through EvalGrad. Lane 0's α prediction is
// evaluated once, by the bundle, not solved again on its own.
func TestTraceEmptyBundleRetriesOneLaneAtHalfStep(t *testing.T) {
	p := &bundled{Problem: &fragile{circle: circle{r: 1}, limit: 0.02}}
	ct, err := TraceContour(p, 1, 0, TraceOptions{
		Step:        0.2,
		MaxPoints:   4,
		Block:       4,
		RecordSteps: true,
		MPNR:        MPNROptions{MaxStep: 10, HTol: 1e-9},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The seed (1, 0) is on the circle with tangent (0, 1): the bundle
	// predicts (1, 0.2·i), i = 1..4, and |h| = (0.2·i)² > 0.02 fails them
	// all; the retry predicts (1, 0.1), where |h| = 0.01 corrects.
	want := []evalRec{{1, 0, false}, {1, 0.2, true}, {1, 0.4, true}, {1, 0.6000000000000001, true}, {1, 0.8, true}, {1, 0.1, false}}
	if len(p.log) < len(want) || !slices.Equal(p.log[:len(want)], want) {
		t.Fatalf("evaluations start %v, want %v", p.log[:min(len(p.log), len(want))], want)
	}
	lane0 := 0
	for _, r := range p.log {
		if r.s == 1 && r.h == 0.2 {
			lane0++
		}
	}
	if lane0 != 1 {
		t.Errorf("lane 0's α prediction evaluated %d times, want 1", lane0)
	}
	if len(ct.Steps) < 2 || ct.Steps[0].OK || ct.Steps[0].Alpha != 0.2 || !ct.Steps[1].OK || ct.Steps[1].Alpha != 0.1 {
		t.Errorf("steps start %+v, want a rejected α = 0.2 lane then an accepted α = 0.1 retry", ct.Steps[:min(len(ct.Steps), 2)])
	}
	if len(ct.Points) != 5 {
		t.Errorf("traced %d points, want seed + 4", len(ct.Points))
	}
}

// TestTraceMinStepExhaustionSameAtEveryBlock: when no step length above
// MinStep corrects, the trace fails with the same α history whether the
// cycle starts as a 4-lane bundle or as one lane.
func TestTraceMinStepExhaustionSameAtEveryBlock(t *testing.T) {
	want := []float64{0.2, 0.1, 0.05, 0.025, 0.0125}
	for _, block := range []int{0, 4} {
		p := &bundled{Problem: &fragile{circle: circle{r: 1}, limit: 1e-4}}
		ct, err := TraceContour(p, 1, 0, TraceOptions{
			Step:  0.2,
			Block: block,
			MPNR:  MPNROptions{MaxStep: 10, HTol: 1e-9},
		})
		var ce *ConvergenceError
		if !errors.As(err, &ce) || ce.Op != "trace" {
			t.Fatalf("Block %d: err = %v, want a trace ConvergenceError", block, err)
		}
		if !slices.Equal(ce.StepLens, want) {
			t.Errorf("Block %d: StepLens = %v, want %v", block, ce.StepLens, want)
		}
		if !errors.Is(err, errFar) {
			t.Errorf("Block %d: err = %v does not wrap the evaluation failure", block, err)
		}
		if ce.At != ct.Points[0] || len(ct.Points) != 1 {
			t.Errorf("Block %d: failed at %+v with %d points, want at the seed", block, ce.At, len(ct.Points))
		}
		if got := p.blockEvals(); (block > 1) != (got > 0) {
			t.Errorf("Block %d: %d evaluations through EvalGradBlock", block, got)
		}
	}
}

// TestTraceCanceledCycleReturnsPartialTrace: a context canceled inside a
// cycle's corrector ends the trace with a trace-level CanceledError and the
// points accepted so far, at every Block.
func TestTraceCanceledCycleReturnsPartialTrace(t *testing.T) {
	for _, block := range []int{0, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		p := &bundled{Problem: &circle{r: 1}, cancelAt: 30, cancel: cancel}
		ct, err := TraceContourCtx(ctx, p, 1.0, 0.0, TraceOptions{
			Step:      0.05,
			MaxPoints: 100,
			Block:     block,
			MPNR:      MPNROptions{MaxStep: 10, HTol: 1e-9},
		})
		cancel()
		var ce *CanceledError
		if !errors.As(err, &ce) || ce.Op != "trace" || !errors.Is(err, context.Canceled) {
			t.Fatalf("Block %d: err = %v, want a trace CanceledError", block, err)
		}
		if len(ct.Points) < 2 || ce.Points != len(ct.Points) {
			t.Errorf("Block %d: %d partial points, error reports %d", block, len(ct.Points), ce.Points)
		}
		for i, pt := range ct.Points {
			if r := math.Hypot(pt.TauS, pt.TauH); math.Abs(r-1) > 1e-6 {
				t.Errorf("Block %d: point %d off the circle: radius %v", block, i, r)
			}
		}
	}
}

// TestBundleAcceptsConvergedLaneZeroBehind: a converged lane 0 is accepted
// even where it lands behind the departure point along the tangent, as a
// one-lane cycle accepts it; only the later lanes must advance past their
// predecessor.
func TestBundleAcceptsConvergedLaneZeroBehind(t *testing.T) {
	p := &bundled{Problem: &circle{r: 1}}
	o := TraceOptions{Step: 0.05, MPNR: MPNROptions{MaxStep: 10, HTol: 1e-9}}.withDefaults()
	// From (1, 0.5), off the circle, the tangent (0, 1) predicts (1, 0.55)
	// and (1, 0.6). The corrector moves radially, onto τh ≈ 0.482 (behind
	// the departure point) and τh ≈ 0.514.
	cur := Point{TauS: 1, TauH: 0.5}
	acc, _, stop, _, err := bundleAdvance(context.Background(), p, p.EvalGradBlock, 2, Point{}, cur, 0, 1, 0.05, 0, o, &Contour{})
	if err != nil || stop {
		t.Fatalf("stop = %v, err = %v", stop, err)
	}
	if len(acc) != 2 || acc[0].TauH >= cur.TauH || acc[1].TauH <= acc[0].TauH {
		t.Fatalf("accepted %+v, want lane 0 behind τh = 0.5 and lane 1 past it", acc)
	}
}

// TestOneLaneCycleClosesAgainstGrownStep: a one-lane cycle tests closure
// against the step length it grows to, as the one-lane tracer always has.
func TestOneLaneCycleClosesAgainstGrownStep(t *testing.T) {
	p := &line{u: 0, v: 1, w: 0} // the τs axis
	o := TraceOptions{Step: 1}.withDefaults()
	// The prediction (1, 0) is on the curve, so the corrector converges at
	// once and α grows to 1.4. It lies 0.6 from the seed: outside α/2,
	// inside 1.4/2.
	acc, next, stop, closed, err := bundleAdvance(context.Background(), p, oneLane(p), 1, Point{TauS: 1.6}, Point{}, 1, 0, 1, 3, o, &Contour{})
	if err != nil || !stop || !closed || len(acc) != 0 || next != 1.4 {
		t.Fatalf("accepted %v, next %v, stop %v, closed %v, err %v; want closure with α grown to 1.4", acc, next, stop, closed, err)
	}
}
