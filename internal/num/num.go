// Package num provides small scalar numeric helpers shared across the
// simulator and characterization code: clamping, smooth ramps, interpolation
// and tolerance-based comparisons.
//
// Everything in this package is pure and allocation-free; it exists so the
// rest of the code base agrees on one definition of "close enough" and one
// smoothstep shape.
package num

import "math"

// Eps is the default relative tolerance used by approximate comparisons.
const Eps = 1e-12

// Clamp returns x limited to the closed interval [lo, hi].
// It panics if lo > hi.
func Clamp(x, lo, hi float64) float64 {
	if lo > hi {
		panic("num: Clamp with lo > hi")
	}
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Lerp linearly interpolates between a (at u=0) and b (at u=1).
// u is not clamped.
func Lerp(a, b, u float64) float64 { return a + (b-a)*u }

// InvLerp returns the parameter u such that Lerp(a, b, u) == x.
// It panics if a == b.
func InvLerp(a, b, x float64) float64 {
	if a == b {
		panic("num: InvLerp with a == b")
	}
	return (x - a) / (b - a)
}

// Smoothstep is the cubic Hermite ramp 3u²−2u³ evaluated on the clamped
// parameter u = (x−edge0)/(edge1−edge0). It is C¹: its derivative vanishes
// at both edges. edge0 must be strictly less than edge1.
func Smoothstep(edge0, edge1, x float64) float64 {
	u := Clamp((x-edge0)/(edge1-edge0), 0, 1)
	return u * u * (3 - 2*u)
}

// SmoothstepDeriv returns d/dx Smoothstep(edge0, edge1, x).
func SmoothstepDeriv(edge0, edge1, x float64) float64 {
	w := edge1 - edge0
	u := (x - edge0) / w
	if u <= 0 || u >= 1 {
		return 0
	}
	return 6 * u * (1 - u) / w
}

// LinStep is the piecewise-linear ramp from 0 (x ≤ edge0) to 1 (x ≥ edge1).
func LinStep(edge0, edge1, x float64) float64 {
	return Clamp((x-edge0)/(edge1-edge0), 0, 1)
}

// LinStepDeriv returns d/dx LinStep(edge0, edge1, x). At the two kink points
// it returns the interior slope, which is the convention most useful for the
// sensitivity right-hand sides built on top of it.
func LinStepDeriv(edge0, edge1, x float64) float64 {
	if x < edge0 || x > edge1 {
		return 0
	}
	return 1 / (edge1 - edge0)
}

// ApproxEqual reports whether a and b are equal to within
// atol + rtol·max(|a|,|b|).
func ApproxEqual(a, b, rtol, atol float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= atol+rtol*scale
}

// WithinRel reports whether a and b agree to relative tolerance rtol,
// treating exact equality (including both zero) as agreement.
func WithinRel(a, b, rtol float64) bool {
	if a == b {
		return true
	}
	return ApproxEqual(a, b, rtol, 0)
}

// Sign returns -1, 0 or +1 according to the sign of x.
func Sign(x float64) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}

// SameSign reports whether a and b are both strictly positive or both
// strictly negative.
func SameSign(a, b float64) bool {
	return (a > 0 && b > 0) || (a < 0 && b < 0)
}

// IsFinite reports whether x is neither NaN nor ±Inf.
func IsFinite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// AllFinite reports whether every element of xs is finite.
func AllFinite(xs []float64) bool {
	for _, x := range xs {
		if !IsFinite(x) {
			return false
		}
	}
	return true
}

// MaxAbs returns the maximum absolute value in xs, or 0 for an empty slice.
func MaxAbs(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// CrossingTime returns the time at which a sampled waveform (times ts,
// values vs) first crosses level going in direction dir (+1 rising,
// -1 falling) at or after tMin, using linear interpolation between samples.
// It returns ok=false if no such crossing exists. ts must be strictly
// increasing and len(ts) == len(vs).
func CrossingTime(ts, vs []float64, level float64, dir int, tMin float64) (t float64, ok bool) {
	if len(ts) != len(vs) {
		panic("num: CrossingTime length mismatch")
	}
	for i := 1; i < len(ts); i++ {
		if tc, ok := Crossing(ts[i-1], ts[i], vs[i-1], vs[i], level, dir, tMin); ok {
			return tc, true
		}
	}
	return 0, false
}

// Crossing is CrossingTime's test of one sample interval: it reports
// whether the waveform sampled as a at t0 and b at t1 crosses level going
// in direction dir within the interval, at a linearly interpolated time at
// or after tMin, and returns that time. Leaving the level does not count;
// reaching it does. CrossingTime returns the crossing of the first interval
// that passes this test, so a caller that applies it to a waveform interval
// by interval stops at the interval CrossingTime would report, with the
// same bits.
func Crossing(t0, t1, a, b, level float64, dir int, tMin float64) (t float64, ok bool) {
	if t1 < tMin {
		return 0, false
	}
	var crossed bool
	if dir >= 0 {
		crossed = a < level && b >= level
	} else {
		crossed = a > level && b <= level
	}
	if !crossed {
		return 0, false
	}
	// crossed implies a ≠ b, so the interpolation is defined.
	if tc := Lerp(t0, t1, (level-a)/(b-a)); tc >= tMin {
		return tc, true
	}
	return 0, false
}
