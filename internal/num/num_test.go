package num

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClamp(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{0.5, 0, 1, 0.5},
		{-1, 0, 1, 0},
		{2, 0, 1, 1},
		{0, 0, 0, 0},
		{-3, -2, -1, -2},
	}
	for _, c := range cases {
		if got := Clamp(c.x, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", c.x, c.lo, c.hi, got, c.want)
		}
	}
}

func TestClampPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for lo > hi")
		}
	}()
	Clamp(0, 1, -1)
}

func TestLerpInvLerpRoundTrip(t *testing.T) {
	if err := quick.Check(func(a, b, u float64) bool {
		a = math.Mod(a, 1e6)
		b = math.Mod(b, 1e6)
		u = math.Mod(u, 10)
		if a == b || !IsFinite(a) || !IsFinite(b) || !IsFinite(u) {
			return true
		}
		x := Lerp(a, b, u)
		got := InvLerp(a, b, x)
		return ApproxEqual(got, u, 1e-9, 1e-9)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestInvLerpPanicsOnDegenerate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for a == b")
		}
	}()
	InvLerp(2, 2, 3)
}

func TestSmoothstepEndpointsAndMidpoint(t *testing.T) {
	if got := Smoothstep(0, 1, -5); got != 0 {
		t.Errorf("below edge0: got %v", got)
	}
	if got := Smoothstep(0, 1, 5); got != 1 {
		t.Errorf("above edge1: got %v", got)
	}
	if got := Smoothstep(0, 1, 0.5); got != 0.5 {
		t.Errorf("midpoint: got %v, want 0.5", got)
	}
	if got := Smoothstep(2, 4, 3); got != 0.5 {
		t.Errorf("shifted midpoint: got %v, want 0.5", got)
	}
}

func TestSmoothstepMonotone(t *testing.T) {
	prev := -1.0
	for i := 0; i <= 100; i++ {
		x := float64(i) / 100
		v := Smoothstep(0, 1, x)
		if v < prev {
			t.Fatalf("not monotone at x=%v: %v < %v", x, v, prev)
		}
		prev = v
	}
}

func TestSmoothstepDerivMatchesFiniteDifference(t *testing.T) {
	const h = 1e-7
	for i := 1; i < 20; i++ {
		x := float64(i) / 20
		fd := (Smoothstep(0, 1, x+h) - Smoothstep(0, 1, x-h)) / (2 * h)
		an := SmoothstepDeriv(0, 1, x)
		if !ApproxEqual(fd, an, 1e-5, 1e-5) {
			t.Errorf("x=%v: fd=%v analytic=%v", x, fd, an)
		}
	}
}

func TestSmoothstepDerivZeroOutside(t *testing.T) {
	if d := SmoothstepDeriv(0, 1, -0.1); d != 0 {
		t.Errorf("got %v below edge", d)
	}
	if d := SmoothstepDeriv(0, 1, 1.1); d != 0 {
		t.Errorf("got %v above edge", d)
	}
	if d := SmoothstepDeriv(0, 1, 0); d != 0 {
		t.Errorf("C1 requires zero derivative at edge0, got %v", d)
	}
}

func TestLinStepAndDeriv(t *testing.T) {
	if got := LinStep(1, 3, 2); got != 0.5 {
		t.Errorf("LinStep midpoint = %v", got)
	}
	if got := LinStepDeriv(1, 3, 2); got != 0.5 {
		t.Errorf("LinStepDeriv interior = %v", got)
	}
	if got := LinStepDeriv(1, 3, 0); got != 0 {
		t.Errorf("LinStepDeriv outside = %v", got)
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(1.0, 1.0+1e-13, 1e-12, 0) {
		t.Error("tiny relative difference should be equal")
	}
	if ApproxEqual(1.0, 1.1, 1e-12, 1e-12) {
		t.Error("10% difference should not be equal")
	}
	if !ApproxEqual(0, 1e-15, 0, 1e-12) {
		t.Error("within atol should be equal")
	}
}

func TestSignAndSameSign(t *testing.T) {
	if Sign(3) != 1 || Sign(-2) != -1 || Sign(0) != 0 {
		t.Error("Sign wrong")
	}
	if !SameSign(1, 2) || !SameSign(-1, -5) {
		t.Error("SameSign false negative")
	}
	if SameSign(1, -1) || SameSign(0, 1) || SameSign(0, 0) {
		t.Error("SameSign false positive")
	}
}

func TestFiniteHelpers(t *testing.T) {
	if !IsFinite(1.5) || IsFinite(math.NaN()) || IsFinite(math.Inf(1)) {
		t.Error("IsFinite wrong")
	}
	if !AllFinite([]float64{1, 2, 3}) {
		t.Error("AllFinite false negative")
	}
	if AllFinite([]float64{1, math.NaN()}) {
		t.Error("AllFinite false positive")
	}
	if MaxAbs([]float64{-3, 2}) != 3 {
		t.Error("MaxAbs wrong")
	}
	if MaxAbs(nil) != 0 {
		t.Error("MaxAbs of empty should be 0")
	}
}

func TestCrossingTimeRising(t *testing.T) {
	ts := []float64{0, 1, 2, 3}
	vs := []float64{0, 0, 1, 1}
	tc, ok := CrossingTime(ts, vs, 0.5, +1, 0)
	if !ok || !ApproxEqual(tc, 1.5, 1e-12, 1e-12) {
		t.Errorf("got %v ok=%v, want 1.5", tc, ok)
	}
}

func TestCrossingTimeFalling(t *testing.T) {
	ts := []float64{0, 1, 2}
	vs := []float64{2, 2, 0}
	tc, ok := CrossingTime(ts, vs, 1.0, -1, 0)
	if !ok || !ApproxEqual(tc, 1.5, 1e-12, 1e-12) {
		t.Errorf("got %v ok=%v, want 1.5", tc, ok)
	}
}

func TestCrossingTimeRespectsTMin(t *testing.T) {
	ts := []float64{0, 1, 2, 3, 4}
	vs := []float64{0, 1, 0, 1, 1} // rises at ~0.5 and ~2.5
	tc, ok := CrossingTime(ts, vs, 0.5, +1, 2)
	if !ok || !ApproxEqual(tc, 2.5, 1e-12, 1e-12) {
		t.Errorf("got %v ok=%v, want 2.5", tc, ok)
	}
}

func TestCrossingTimeNone(t *testing.T) {
	if _, ok := CrossingTime([]float64{0, 1}, []float64{0, 0.4}, 0.5, +1, 0); ok {
		t.Error("expected no crossing")
	}
}

// TestCrossingStopsWhereCrossingTimeReports applies Crossing interval by
// interval, as a transient that stops at a crossing does, and requires the
// scan to stop at the interval whose crossing CrossingTime reports, with the
// same bits, and to run to the end where CrossingTime finds none.
func TestCrossingStopsWhereCrossingTimeReports(t *testing.T) {
	ts := []float64{0, 1, 2, 3, 4}
	cases := []struct {
		name  string
		vs    []float64
		level float64
		dir   int
		tMin  float64
		stop  int // index of the sample that ends the scan; 0 = none
		tc    float64
	}{
		{"rising", []float64{0, 0, 1, 1, 1}, 0.5, +1, 0, 2, 1.5},
		{"falling", []float64{2, 2, 0, 0, 0}, 1, -1, 0, 2, 1.5},
		{"crossing interpolated before tMin goes on", []float64{0, 0, 1, 0, 1}, 0.5, +1, 1.8, 4, 3.5},
		{"interval ending before tMin goes on", []float64{0, 1, 0, 1, 1}, 0.5, +1, 1.5, 3, 2.5},
		{"wrong direction", []float64{1, 1, 0, 0, 0}, 0.5, +1, 0, 0, 0},
		{"reaching the level counts", []float64{0, 0.5, 0, 0, 0}, 0.5, +1, 0, 1, 1},
		{"leaving the level does not", []float64{0.5, 1, 1, 1, 1}, 0.5, +1, 0, 0, 0},
		{"no crossing", []float64{0, 0.4, 0.4, 0.4, 0.4}, 0.5, +1, 0, 0, 0},
	}
	for _, c := range cases {
		stop, tc := 0, 0.0
		for i := 1; i < len(ts); i++ {
			if got, ok := Crossing(ts[i-1], ts[i], c.vs[i-1], c.vs[i], c.level, c.dir, c.tMin); ok {
				stop, tc = i, got
				break
			}
		}
		if stop != c.stop || tc != c.tc {
			t.Errorf("%s: scan stopped at sample %d with t = %v, want %d and %v", c.name, stop, tc, c.stop, c.tc)
		}
		want, ok := CrossingTime(ts, c.vs, c.level, c.dir, c.tMin)
		if ok != (stop > 0) || math.Float64bits(want) != math.Float64bits(tc) {
			t.Errorf("%s: CrossingTime = %v (ok %v), the scan gave %v (stopped %v)", c.name, want, ok, tc, stop > 0)
		}
	}
}

func TestCrossingTimeMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CrossingTime([]float64{0}, []float64{0, 1}, 0.5, 1, 0)
}

func TestSmoothstepPropertyBounded(t *testing.T) {
	f := func(x float64) bool {
		if !IsFinite(x) {
			return true
		}
		v := Smoothstep(-1, 1, x)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
