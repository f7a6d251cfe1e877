package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// analytic test problems ----------------------------------------------------

// circle: h = τs² + τh² − R². Contour is a closed circle of radius R.
type circle struct {
	r     float64
	evals int
	grads int
}

func (c *circle) Eval(s, h float64) (float64, error) {
	c.evals++
	return s*s + h*h - c.r*c.r, nil
}

func (c *circle) EvalGrad(s, h float64) (float64, float64, float64, error) {
	c.grads++
	return s*s + h*h - c.r*c.r, 2 * s, 2 * h, nil
}

// hyperbola: h = (τs−a)(τh−b) − c for τs>a, τh>b — the qualitative shape of
// a setup/hold tradeoff curve (decreasing, convex, with asymptotes).
type hyperbola struct {
	a, b, c float64
	grads   int
}

func (hp *hyperbola) Eval(s, h float64) (float64, error) {
	return (s-hp.a)*(h-hp.b) - hp.c, nil
}

func (hp *hyperbola) EvalGrad(s, h float64) (float64, float64, float64, error) {
	hp.grads++
	return (s-hp.a)*(h-hp.b) - hp.c, h - hp.b, s - hp.a, nil
}

// line: h = u·τs + v·τh − w.
type line struct{ u, v, w float64 }

func (l *line) Eval(s, h float64) (float64, error) {
	return l.u*s + l.v*h - l.w, nil
}

func (l *line) EvalGrad(s, h float64) (float64, float64, float64, error) {
	return l.u*s + l.v*h - l.w, l.u, l.v, nil
}

// flat: h = 1 everywhere (degenerate gradient).
type flat struct{}

func (flat) Eval(s, h float64) (float64, error)                       { return 1, nil }
func (flat) EvalGrad(s, h float64) (float64, float64, float64, error) { return 1, 0, 0, nil }

// latchLike mimics the circuit's h: a smooth saturating function of the
// hyperbola residual, flat (≈ ±1) away from the contour — the Q-surface
// cliff of Fig. 1(a).
type latchLike struct {
	hyp hyperbola
	w   float64
}

func (l *latchLike) raw(s, h float64) (float64, float64, float64) {
	r, gs, gh, _ := l.hyp.EvalGrad(s, h)
	t := math.Tanh(r / l.w)
	d := (1 - t*t) / l.w
	return t, d * gs, d * gh
}

func (l *latchLike) Eval(s, h float64) (float64, error) {
	v, _, _ := l.raw(s, h)
	return v, nil
}

func (l *latchLike) EvalGrad(s, h float64) (float64, float64, float64, error) {
	v, gs, gh := l.raw(s, h)
	return v, gs, gh, nil
}

// MPNR ----------------------------------------------------------------------

func TestMPNRConvergesToNearestPointOnCircle(t *testing.T) {
	c := &circle{r: 1}
	// Start at (2, 0): the nearest curve point is (1, 0).
	res, err := SolveMPNR(c, 2, 0, MPNROptions{MaxStep: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	if math.Abs(res.TauS-1) > 1e-5 || math.Abs(res.TauH) > 1e-9 {
		t.Errorf("converged to (%v, %v), want (1, 0)", res.TauS, res.TauH)
	}
	// Diagonal start: nearest point is on the diagonal.
	res, err = SolveMPNR(c, 2, 2, MPNROptions{MaxStep: 10})
	if err != nil {
		t.Fatal(err)
	}
	d := 1 / math.Sqrt2
	if math.Abs(res.TauS-d) > 1e-5 || math.Abs(res.TauH-d) > 1e-5 {
		t.Errorf("converged to (%v, %v), want (%v, %v)", res.TauS, res.TauH, d, d)
	}
}

func TestMPNRQuadraticConvergenceOnLine(t *testing.T) {
	// For a linear h, one MPNR step lands exactly on the curve.
	l := &line{u: 3, v: -2, w: 1}
	res, err := SolveMPNR(l, 5, 5, MPNROptions{MaxStep: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.GradEvals > 2 {
		t.Errorf("linear problem took %d gradient evals, want ≤ 2", res.GradEvals)
	}
	h, _ := l.Eval(res.TauS, res.TauH)
	if math.Abs(h) > 1e-12 {
		t.Errorf("residual %v", h)
	}
}

func TestMPNRResidualMeetsTolerance(t *testing.T) {
	c := &circle{r: 1}
	res, err := SolveMPNR(c, 1.3, 0.4, MPNROptions{HTol: 1e-10, MaxStep: 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.H) > 1e-10 {
		t.Errorf("|h| = %v exceeds tolerance", math.Abs(res.H))
	}
}

func TestMPNRDegenerateGradient(t *testing.T) {
	_, err := SolveMPNR(flat{}, 0, 0, MPNROptions{})
	if !errors.Is(err, ErrDegenerateGradient) {
		t.Errorf("err = %v, want ErrDegenerateGradient", err)
	}
}

func TestMPNRTrajectoryRecorded(t *testing.T) {
	c := &circle{r: 1}
	res, err := SolveMPNR(c, 1.5, 0.5, MPNROptions{Record: true, MaxStep: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) < 2 {
		t.Fatalf("trajectory too short: %d", len(res.Trajectory))
	}
	// |h| should shrink monotonically on this well-behaved problem.
	for i := 1; i < len(res.Trajectory); i++ {
		if math.Abs(res.Trajectory[i].H) > math.Abs(res.Trajectory[i-1].H) {
			t.Errorf("residual grew at iterate %d", i)
		}
	}
}

func TestMPNRMaxStepClamps(t *testing.T) {
	c := &circle{r: 1}
	// Huge initial residual with a tight clamp still converges, just slower.
	res, err := SolveMPNR(c, 4, 0, MPNROptions{MaxStep: 0.5, MaxIter: 30})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.TauS-1) > 1e-5 {
		t.Errorf("converged to %v", res.TauS)
	}
}

func TestMPNRNoConvergence(t *testing.T) {
	c := &circle{r: 1}
	_, err := SolveMPNR(c, 100, 0, MPNROptions{MaxIter: 2, MaxStep: 1e-3})
	if !errors.Is(err, ErrNoConvergence) {
		t.Errorf("err = %v, want ErrNoConvergence", err)
	}
}

// Tangent ---------------------------------------------------------------------

func TestTangentOrthogonalAndUnit(t *testing.T) {
	gs, gh := 3.0, 4.0
	ts, th, err := Tangent(gs, gh)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ts*gs+th*gh) > 1e-14 {
		t.Error("tangent not orthogonal to gradient")
	}
	if math.Abs(math.Hypot(ts, th)-1) > 1e-14 {
		t.Error("tangent not unit length")
	}
	if _, _, err := Tangent(0, 0); !errors.Is(err, ErrDegenerateGradient) {
		t.Error("degenerate gradient not detected")
	}
}

// Tracing ---------------------------------------------------------------------

func TestTraceCircleStaysOnCurve(t *testing.T) {
	c := &circle{r: 1}
	ct, err := TraceContour(c, 1.2, 0.1, TraceOptions{
		Step:      0.05,
		MaxPoints: 50,
		MPNR:      MPNROptions{MaxStep: 10, HTol: 1e-9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.Points) < 20 {
		t.Fatalf("too few points: %d", len(ct.Points))
	}
	for i, p := range ct.Points {
		if r := math.Hypot(p.TauS, p.TauH); math.Abs(r-1) > 1e-6 {
			t.Errorf("point %d off the circle: radius %v", i, r)
		}
	}
}

func TestTraceCircleDetectsClosure(t *testing.T) {
	c := &circle{r: 1}
	ct, err := TraceContour(c, 1.0, 0.0, TraceOptions{
		Step:      0.12,
		MaxPoints: 200,
		MPNR:      MPNROptions{MaxStep: 10, HTol: 1e-9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ct.Closed {
		t.Error("closed curve not detected")
	}
	// Should take roughly 2π/step ≈ 52 points with adaptation ≤ 4·step.
	if len(ct.Points) > 200 {
		t.Errorf("closure missed, used %d points", len(ct.Points))
	}
}

func TestTraceRespectssBounds(t *testing.T) {
	hp := &hyperbola{a: 0.1, b: 0.05, c: 0.01}
	bounds := Rect{MinS: 0.12, MaxS: 0.5, MinH: 0.06, MaxH: 0.5}
	ct, err := TraceContour(hp, 0.2, 0.2, TraceOptions{
		Step:           0.01,
		MaxPoints:      500,
		Bounds:         bounds,
		BothDirections: true,
		MPNR:           MPNROptions{MaxStep: 10, HTol: 1e-12},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ct.Points {
		if !bounds.Contains(p.TauS, p.TauH) {
			t.Errorf("point %d outside bounds: (%v, %v)", i, p.TauS, p.TauH)
		}
	}
	// Both directions: the curve should span a decent τs range.
	minS, maxS := math.Inf(1), math.Inf(-1)
	for _, p := range ct.Points {
		minS = math.Min(minS, p.TauS)
		maxS = math.Max(maxS, p.TauS)
	}
	if maxS-minS < 0.2 {
		t.Errorf("curve span too small: [%v, %v]", minS, maxS)
	}
}

func TestTraceHyperbolaMonotoneTradeoff(t *testing.T) {
	// The setup/hold tradeoff curve: τh decreases as τs increases.
	hp := &hyperbola{a: 0.1, b: 0.05, c: 0.01}
	ct, err := TraceContour(hp, 0.2, 0.2, TraceOptions{
		Step:      0.02,
		MaxPoints: 30,
		MPNR:      MPNROptions{MaxStep: 10, HTol: 1e-12},
	})
	if err != nil {
		t.Fatal(err)
	}
	inc, dec := 0, 0
	for i := 1; i < len(ct.Points); i++ {
		ds := ct.Points[i].TauS - ct.Points[i-1].TauS
		dh := ct.Points[i].TauH - ct.Points[i-1].TauH
		if ds > 0 {
			inc++
		}
		if dh < 0 {
			dec++
		}
	}
	// Directionality must be consistent: all steps same way.
	n := len(ct.Points) - 1
	if !(inc == n && dec == n) && !(inc == 0 && dec == 0) {
		t.Errorf("trace zig-zagged: %d/%d increasing τs, %d/%d decreasing τh", inc, n, dec, n)
	}
}

func TestTraceCorrectorItersSmall(t *testing.T) {
	// With Euler prediction, the corrector should need ≤ 3 iterations
	// almost everywhere (the paper's observation).
	hp := &hyperbola{a: 0.1, b: 0.05, c: 0.01}
	ct, err := TraceContour(hp, 0.2, 0.11, TraceOptions{
		Step:        0.01,
		MaxPoints:   25,
		RecordSteps: true,
		MPNR:        MPNROptions{MaxStep: 10, HTol: 1e-12},
	})
	if err != nil {
		t.Fatal(err)
	}
	slow := 0
	for _, p := range ct.Points[1:] {
		if p.CorrectorIters > 3 {
			slow++
		}
	}
	if slow > len(ct.Points)/4 {
		t.Errorf("%d of %d points needed > 3 corrector iterations", slow, len(ct.Points))
	}
	if len(ct.Steps) == 0 {
		t.Error("steps not recorded")
	}
}

func TestTraceLatchLikeCliff(t *testing.T) {
	// On the saturating problem, the seed must be near the contour (inside
	// the cliff) — exactly why the paper brackets first. From a reasonable
	// seed the tracer must stay on the curve.
	l := &latchLike{hyp: hyperbola{a: 0.1, b: 0.05, c: 0.01}, w: 0.005}
	ct, err := TraceContour(l, 0.21, 0.14, TraceOptions{
		Step:      0.01,
		MaxPoints: 20,
		MPNR:      MPNROptions{MaxStep: 0.02, HTol: 1e-9},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ct.Points {
		want := 0.01/(p.TauS-0.1) + 0.05
		if math.Abs(p.TauH-want)/want > 1e-3 {
			t.Errorf("point %d off contour: τh=%v want %v", i, p.TauH, want)
		}
	}
}

func TestTraceGradEvalsLinearInPoints(t *testing.T) {
	// Cost must scale linearly with the number of contour points — the
	// paper's core complexity claim (Section I).
	costs := map[int]int{}
	for _, n := range []int{10, 20, 40} {
		c := &circle{r: 1}
		ct, err := TraceContour(c, 1.1, 0, TraceOptions{
			Step:      0.01,
			MaxStep:   0.01, // disable growth for a clean scaling measurement
			MaxPoints: n,
			MPNR:      MPNROptions{MaxStep: 10, HTol: 1e-9},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(ct.Points) != n+1 {
			t.Fatalf("points = %d, want %d", len(ct.Points), n+1)
		}
		costs[n] = ct.GradEvals
	}
	r1 := float64(costs[20]) / float64(costs[10])
	r2 := float64(costs[40]) / float64(costs[20])
	if r1 < 1.6 || r1 > 2.4 || r2 < 1.6 || r2 > 2.4 {
		t.Errorf("cost not linear: 10→%d, 20→%d, 40→%d", costs[10], costs[20], costs[40])
	}
}

// Natural-parameter ablation ---------------------------------------------------

func TestNaturalContinuationWorksOnGentleCurve(t *testing.T) {
	hp := &hyperbola{a: 0.1, b: 0.05, c: 0.01}
	ct, err := TraceContourNatural(hp, 0.2, 0.2, TraceOptions{
		Step:      0.02,
		MaxPoints: 15,
		MPNR:      MPNROptions{MaxStep: 10, HTol: 1e-12},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ct.Points {
		want := 0.01/(p.TauS-0.1) + 0.05
		if math.Abs(p.TauH-want) > 1e-6 {
			t.Errorf("point %d off contour: %v vs %v", i, p.TauH, want)
		}
	}
}

func TestNaturalContinuationFailsAtTurningPoint(t *testing.T) {
	// On the circle, marching τs rightward must fail near τs = r where the
	// tangent is vertical — the failure mode Euler-Newton avoids.
	c := &circle{r: 1}
	_, err := TraceContourNatural(c, 0.5, 0.9, TraceOptions{
		Step:      0.05,
		MaxPoints: 100,
		MPNR:      MPNROptions{MaxStep: 10, HTol: 1e-9},
	})
	if err == nil {
		t.Fatal("expected failure at the turning point")
	}
	// Euler-Newton sails through the same region (tracing both directions,
	// one of which heads straight for the turning point).
	ct, err := TraceContour(c, 0.5, 0.9, TraceOptions{
		Step:           0.05,
		MaxPoints:      60,
		BothDirections: true,
		MPNR:           MPNROptions{MaxStep: 10, HTol: 1e-9},
	})
	if err != nil {
		t.Fatalf("Euler-Newton failed too: %v", err)
	}
	crossed := false
	for _, p := range ct.Points {
		if p.TauS > 0.999 {
			crossed = true
		}
	}
	if !crossed {
		t.Error("Euler-Newton did not pass the turning point")
	}
}

// Seeding -----------------------------------------------------------------------

func TestFindSeedBracketsCliff(t *testing.T) {
	l := &latchLike{hyp: hyperbola{a: 100e-12, b: 50e-12, c: (100e-12) * (100e-12)}, w: 0.005}
	// At τh = 500 ps, contour τs = 100p + c/(450p) ≈ 122.2 ps.
	res, err := FindSeed(l, SeedOptions{TauHLarge: 500e-12})
	if err != nil {
		t.Fatal(err)
	}
	want := 100e-12 + (100e-12*100e-12)/(450e-12)
	if math.Abs(res.TauS-want) > 25e-12 {
		t.Errorf("seed %v ps, want ≈ %v ps", res.TauS*1e12, want*1e12)
	}
	if res.PlainEvals == 0 || res.PlainEvals > 12 {
		t.Errorf("bracketing used %d evals", res.PlainEvals)
	}
	if res.TauH != 500e-12 {
		t.Errorf("TauH = %v", res.TauH)
	}
}

func TestFindSeedNoBracket(t *testing.T) {
	if _, err := FindSeed(flat{}, SeedOptions{}); !errors.Is(err, ErrNoBracket) {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
}

// Independent characterization ---------------------------------------------------

func TestIndependentBisectionAndNRAgree(t *testing.T) {
	l := &latchLike{hyp: hyperbola{a: 100e-12, b: 50e-12, c: (100e-12) * (100e-12)}, w: 0.01}
	want := 100e-12 + (100e-12*100e-12)/(500e-12-50e-12)
	bis, err := IndependentBisection(l, IndependentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nr, err := IndependentNR(l, IndependentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bis.Skew-want) > 1e-12 {
		t.Errorf("bisection: %v want %v", bis.Skew, want)
	}
	if math.Abs(nr.Skew-want) > 1e-12 {
		t.Errorf("NR: %v want %v", nr.Skew, want)
	}
	if math.Abs(nr.Skew-bis.Skew) > 0.5e-12 {
		t.Errorf("methods disagree: %v vs %v", nr.Skew, bis.Skew)
	}
}

func TestIndependentNRCheaperThanBisection(t *testing.T) {
	l := &latchLike{hyp: hyperbola{a: 100e-12, b: 50e-12, c: (100e-12) * (100e-12)}, w: 0.01}
	// Equal accuracy targets: 0.01 ps (five digits on ~100 ps skews).
	opts := IndependentOptions{Tol: 0.01e-12}
	bis, err := IndependentBisection(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	nr, err := IndependentNR(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	costB := bis.PlainEvals
	costN := nr.PlainEvals + nr.GradEvals
	if costN*2 >= costB {
		t.Errorf("NR cost %d not ≥2× cheaper than bisection cost %d", costN, costB)
	}
}

func TestIndependentHoldAxis(t *testing.T) {
	// Solve for τh with τs pinned: the same hyperbola by symmetry.
	l := &latchLike{hyp: hyperbola{a: 100e-12, b: 50e-12, c: (100e-12) * (100e-12)}, w: 0.01}
	want := 50e-12 + (100e-12*100e-12)/(500e-12-100e-12)
	nr, err := IndependentNR(l, IndependentOptions{Axis: HoldAxis})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(nr.Skew-want) > 1e-12 {
		t.Errorf("hold NR: %v want %v", nr.Skew, want)
	}
	if HoldAxis.String() != "hold" || SetupAxis.String() != "setup" {
		t.Error("axis strings")
	}
}

func TestIndependentNoBracket(t *testing.T) {
	if _, err := IndependentBisection(flat{}, IndependentOptions{}); !errors.Is(err, ErrNoBracket) {
		t.Error("bisection should report ErrNoBracket")
	}
	if _, err := IndependentNR(flat{}, IndependentOptions{}); !errors.Is(err, ErrNoBracket) {
		t.Error("NR should report ErrNoBracket")
	}
}

// Misc ----------------------------------------------------------------------------

func TestRectContains(t *testing.T) {
	r := Rect{MinS: 0, MaxS: 1, MinH: 0, MaxH: 1}
	if !r.Contains(0.5, 0.5) || r.Contains(1.5, 0.5) || r.Contains(0.5, -0.1) {
		t.Error("Contains wrong")
	}
}

func TestSetupHoldPairs(t *testing.T) {
	ct := &Contour{Points: []Point{{TauS: 1, TauH: 2}, {TauS: 3, TauH: 4}}}
	pairs := ct.SetupHoldPairs()
	if len(pairs) != 2 || pairs[0] != [2]float64{1, 2} || pairs[1] != [2]float64{3, 4} {
		t.Errorf("pairs: %v", pairs)
	}
}

func TestTraceOptionsDefaults(t *testing.T) {
	o := TraceOptions{}.withDefaults()
	if o.Step != 5e-12 || o.MaxPoints != 40 || o.FastIters != 3 {
		t.Errorf("defaults: %+v", o)
	}
	if o.MinStep >= o.Step || o.MaxStep <= o.Step {
		t.Errorf("step bounds: %+v", o)
	}
}

func TestMPNROptionsDefaults(t *testing.T) {
	o := MPNROptions{}.withDefaults()
	if o.MaxIter != 12 || o.HTol != 1e-6 || o.MaxStep != 50e-12 {
		t.Errorf("defaults: %+v", o)
	}
	o = MPNROptions{MaxStep: -1}.withDefaults()
	if o.MaxStep != 0 {
		t.Errorf("negative MaxStep should disable clamping: %+v", o)
	}
}

func TestFindSeedExpandsBracket(t *testing.T) {
	// The contour sits above the initial Hi: the search must expand the
	// bracket (Fig. 7's "start with an interval containing the setup time"
	// step when the first guess is too narrow).
	l := &latchLike{hyp: hyperbola{a: 1.5e-9, b: 50e-12, c: (100e-12) * (100e-12)}, w: 0.01}
	res, err := FindSeed(l, SeedOptions{TauHLarge: 500e-12, Lo: 10e-12, Hi: 400e-12})
	if err != nil {
		t.Fatal(err)
	}
	want := 1.5e-9 + (100e-12*100e-12)/(450e-12)
	if math.Abs(res.TauS-want) > 25e-12 {
		t.Errorf("seed %v ps, want ≈ %v ps", res.TauS*1e12, want*1e12)
	}
}

func TestFindSeedExpandExhausted(t *testing.T) {
	// Contour far beyond any reachable expansion.
	l := &latchLike{hyp: hyperbola{a: 1.0, b: 50e-12, c: 1e-20}, w: 0.01}
	if _, err := FindSeed(l, SeedOptions{Lo: 1e-12, Hi: 2e-12, MaxExpand: 2}); !errors.Is(err, ErrNoBracket) {
		t.Errorf("err = %v", err)
	}
}

func TestMPNRQuadraticRate(t *testing.T) {
	c := &circle{r: 1}
	res, err := SolveMPNR(c, 1.05, 0.02, MPNROptions{Record: true, MaxStep: 10, HTol: 1e-14})
	if err != nil {
		t.Fatal(err)
	}
	var errs []float64
	for _, p := range res.Trajectory {
		e := math.Abs(math.Hypot(p.TauS, p.TauH) - 1)
		if e > 0 {
			errs = append(errs, e)
		}
	}
	if len(errs) < 3 {
		t.Skipf("converged too fast to measure rate: %v", errs)
	}
	// Order estimate p ≈ log(e2/e1)/log(e1/e0) ≥ ~1.7 for quadratic.
	p := math.Log(errs[2]/errs[1]) / math.Log(errs[1]/errs[0])
	if p < 1.5 {
		t.Errorf("convergence order %.2f, want ≥ 1.5 (errors %v)", p, errs)
	}
}

// Property: from random starts in an annulus around the circle, MPNR always
// converges to a point on the circle, and the landing point is close to the
// radial projection (nearest point).
func TestMPNRNearestPointProperty(t *testing.T) {
	c := &circle{r: 1}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		th := rng.Float64() * 2 * math.Pi
		r := 0.6 + 0.8*rng.Float64()
		s0, h0 := r*math.Cos(th), r*math.Sin(th)
		res, err := SolveMPNR(c, s0, h0, MPNROptions{MaxStep: 10, HTol: 1e-12})
		if err != nil {
			t.Fatalf("trial %d from (%v, %v): %v", trial, s0, h0, err)
		}
		if d := math.Abs(math.Hypot(res.TauS, res.TauH) - 1); d > 1e-6 {
			t.Errorf("trial %d: landed %v off the circle", trial, d)
		}
		// Nearest point is the radial projection.
		want := [2]float64{math.Cos(th), math.Sin(th)}
		if math.Hypot(res.TauS-want[0], res.TauH-want[1]) > 0.05 {
			t.Errorf("trial %d: landed at (%v, %v), projection (%v, %v)",
				trial, res.TauS, res.TauH, want[0], want[1])
		}
	}
}
