package wave

import (
	"math"
	"testing"

	"latchchar/internal/num"
)

func TestDC(t *testing.T) {
	if DC(2.5).V(123) != 2.5 {
		t.Error("DC wrong")
	}
}

func TestStepLevelsAndMidpoint(t *testing.T) {
	s := Step{V0: 0, V1: 2.5, T50: 1e-9, Rise: 0.1e-9, Shape: RampSmooth}
	if s.V(0) != 0 {
		t.Error("before step")
	}
	if s.V(2e-9) != 2.5 {
		t.Error("after step")
	}
	if !num.ApproxEqual(s.V(1e-9), 1.25, 1e-12, 1e-12) {
		t.Errorf("50%% point: %v", s.V(1e-9))
	}
}

func TestStepLinearShape(t *testing.T) {
	s := Step{V0: 0, V1: 1, T50: 0.5, Rise: 1, Shape: RampLinear}
	if !num.ApproxEqual(s.V(0.25), 0.25, 1e-12, 1e-12) {
		t.Errorf("quarter point: %v", s.V(0.25))
	}
}

func TestPWLValidation(t *testing.T) {
	if _, err := NewPWL([]float64{0, 1}, []float64{0}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewPWL(nil, nil); err == nil {
		t.Error("empty accepted")
	}
	if _, err := NewPWL([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Error("non-increasing times accepted")
	}
}

func TestPWLInterpolationAndClamping(t *testing.T) {
	p, err := NewPWL([]float64{1, 2, 4}, []float64{0, 10, 0})
	if err != nil {
		t.Fatal(err)
	}
	if p.V(0) != 0 {
		t.Error("before first point")
	}
	if p.V(9) != 0 {
		t.Error("after last point")
	}
	if !num.ApproxEqual(p.V(1.5), 5, 1e-12, 1e-12) {
		t.Errorf("interp: %v", p.V(1.5))
	}
	if !num.ApproxEqual(p.V(3), 5, 1e-12, 1e-12) {
		t.Errorf("interp down: %v", p.V(3))
	}
	if p.V(2) != 10 {
		t.Errorf("exact point: %v", p.V(2))
	}
}

func paperClock() Clock {
	return Clock{
		Low: 0, High: 2.5,
		Period: 10e-9, Delay: 1e-9,
		Rise: 0.1e-9, Fall: 0.1e-9,
		Shape: RampSmooth,
	}
}

func TestClockPaperTiming(t *testing.T) {
	c := paperClock()
	if c.V(0) != 0 {
		t.Error("clock should be low before first edge")
	}
	if got := c.Edge50(1); !num.ApproxEqual(got, 11.05e-9, 1e-12, 1e-21) {
		t.Errorf("Edge50(1) = %v", got)
	}
	if !num.ApproxEqual(c.V(11.05e-9), 1.25, 1e-9, 1e-9) {
		t.Errorf("value at 50%% crossing: %v", c.V(11.05e-9))
	}
	if c.V(3e-9) != 2.5 {
		t.Errorf("high phase: %v", c.V(3e-9))
	}
	if c.V(8e-9) != 0 {
		t.Errorf("low phase: %v", c.V(8e-9))
	}
	// Periodicity.
	if !num.ApproxEqual(c.V(13e-9), c.V(3e-9), 1e-12, 1e-12) {
		t.Error("not periodic")
	}
}

func TestClockFallRamp(t *testing.T) {
	c := paperClock()
	// Width defaults to Period/2 = 5 ns from ramp start: fall begins at
	// 1 ns + 5 ns = 6 ns, 50% at 6.05 ns.
	if !num.ApproxEqual(c.V(6.05e-9), 1.25, 1e-9, 1e-9) {
		t.Errorf("fall midpoint: %v", c.V(6.05e-9))
	}
}

func TestClockExplicitWidth(t *testing.T) {
	c := paperClock()
	c.Width = 2e-9
	if c.V(2.5e-9) != 2.5 {
		t.Error("high before fall")
	}
	if c.V(3.5e-9) != 0 {
		t.Error("low after explicit-width fall")
	}
}

func TestShiftedAndInverted(t *testing.T) {
	c := paperClock()
	s := Shifted{W: c, Dt: 0.3e-9}
	if !num.ApproxEqual(s.V(11.35e-9), c.V(11.05e-9), 1e-12, 1e-12) {
		t.Error("shift wrong")
	}
	inv := Inverted{W: c, Low: 0, High: 2.5}
	if !num.ApproxEqual(inv.V(3e-9), 0, 1e-12, 1e-12) {
		t.Errorf("inverted high phase: %v", inv.V(3e-9))
	}
	if !num.ApproxEqual(inv.V(8e-9), 2.5, 1e-12, 1e-12) {
		t.Errorf("inverted low phase: %v", inv.V(8e-9))
	}
}

func mkPulse(t *testing.T, shape RampShape) *DataPulse {
	t.Helper()
	d, err := NewDataPulse(11.05e-9, 0, 2.5, 0.1e-9, 0.1e-9, shape)
	if err != nil {
		t.Fatal(err)
	}
	d.SetSkews(200e-12, 150e-12)
	return d
}

func TestDataPulseLevels(t *testing.T) {
	d := mkPulse(t, RampSmooth)
	if d.V(0) != 0 {
		t.Error("rest before pulse")
	}
	if !num.ApproxEqual(d.V(11.0e-9), 2.5, 1e-9, 1e-9) {
		t.Errorf("active during pulse: %v", d.V(11.0e-9))
	}
	if !num.ApproxEqual(d.V(12e-9), 0, 1e-9, 1e-9) {
		t.Errorf("rest after pulse: %v", d.V(12e-9))
	}
}

func TestDataPulse50PercentCrossings(t *testing.T) {
	d := mkPulse(t, RampSmooth)
	lead := 11.05e-9 - 200e-12
	trail := 11.05e-9 + 150e-12
	if !num.ApproxEqual(d.V(lead), 1.25, 1e-9, 1e-9) {
		t.Errorf("lead 50%%: %v", d.V(lead))
	}
	if !num.ApproxEqual(d.V(trail), 1.25, 1e-9, 1e-9) {
		t.Errorf("trail 50%%: %v", d.V(trail))
	}
}

func TestDataPulseFallingData(t *testing.T) {
	// High-to-low data transition (the C²MOS experiment).
	d, err := NewDataPulse(11.05e-9, 2.5, 0, 0.1e-9, 0.1e-9, RampSmooth)
	if err != nil {
		t.Fatal(err)
	}
	d.SetSkews(300e-12, 250e-12)
	if d.V(0) != 2.5 {
		t.Error("rest should be high")
	}
	if !num.ApproxEqual(d.V(11.05e-9), 0, 1e-9, 1e-9) {
		t.Errorf("active low at edge: %v", d.V(11.05e-9))
	}
}

func TestDataPulseSkewDerivativesFiniteDifference(t *testing.T) {
	for _, shape := range []RampShape{RampSmooth, RampLinear} {
		d := mkPulse(t, shape)
		const h = 1e-16 // seconds; derivative scale is V/s ~ 1e10
		// Interior ramp points only: the linear shape's derivative is
		// discontinuous exactly at ramp boundaries, where a centered finite
		// difference straddles the kink.
		times := []float64{
			10.82e-9, 10.84e-9, 10.85e-9, 10.88e-9, // inside the leading ramp
			11.16e-9, 11.18e-9, 11.20e-9, 11.24e-9, // inside the trailing ramp
			5e-9, 11.0e-9, // quiescent regions
		}
		for _, tt := range times {
			d.SetSkews(200e-12+h, 150e-12)
			vp := d.V(tt)
			d.SetSkews(200e-12-h, 150e-12)
			vm := d.V(tt)
			d.SetSkews(200e-12, 150e-12)
			fd := (vp - vm) / (2 * h)
			an := d.DTauS(tt)
			if !num.ApproxEqual(fd, an, 2e-3, 1e6) { // 1e6 V/s ≈ 1e-4 of scale
				t.Errorf("%v DTauS at t=%v: fd=%v analytic=%v", shape, tt, fd, an)
			}

			d.SetSkews(200e-12, 150e-12+h)
			vp = d.V(tt)
			d.SetSkews(200e-12, 150e-12-h)
			vm = d.V(tt)
			d.SetSkews(200e-12, 150e-12)
			fd = (vp - vm) / (2 * h)
			an = d.DTauH(tt)
			if !num.ApproxEqual(fd, an, 2e-3, 1e6) {
				t.Errorf("%v DTauH at t=%v: fd=%v analytic=%v", shape, tt, fd, an)
			}
		}
	}
}

func TestDataPulseDerivativeSupports(t *testing.T) {
	d := mkPulse(t, RampSmooth)
	// zs vanishes away from the leading ramp; zh away from the trailing.
	if d.DTauS(11.2e-9) != 0 {
		t.Error("DTauS should vanish on trailing ramp region")
	}
	if d.DTauH(10.85e-9) != 0 {
		t.Error("DTauH should vanish on leading ramp region")
	}
	if d.DTauS(5e-9) != 0 || d.DTauH(5e-9) != 0 {
		t.Error("derivatives should vanish in quiescence")
	}
}

func TestDataPulseDerivativeSigns(t *testing.T) {
	d := mkPulse(t, RampSmooth)
	// Rising data (Active > Rest): increasing τs moves the rise earlier, so
	// mid-ramp the value increases with τs → zs > 0 there.
	if zs := d.DTauS(11.05e-9 - 200e-12); zs <= 0 {
		t.Errorf("zs mid-lead-ramp = %v, want > 0", zs)
	}
	// Increasing τh moves the fall later → value increases with τh mid-fall.
	if zh := d.DTauH(11.05e-9 + 150e-12); zh <= 0 {
		t.Errorf("zh mid-trail-ramp = %v, want > 0", zh)
	}
}

func TestDataPulseValidation(t *testing.T) {
	if _, err := NewDataPulse(0, 0, 1, 0, 1e-10, RampSmooth); err == nil {
		t.Error("zero rise accepted")
	}
	if _, err := NewDataPulse(0, 0, 1, 1e-10, -1, RampSmooth); err == nil {
		t.Error("negative fall accepted")
	}
}

func TestDataPulseSupportStart(t *testing.T) {
	d := mkPulse(t, RampSmooth)
	got := d.SupportStart(400e-12)
	want := 11.05e-9 - 400e-12 - 0.05e-9
	if !num.ApproxEqual(got, want, 1e-12, 1e-21) {
		t.Errorf("SupportStart = %v, want %v", got, want)
	}
}

// TestDataPulseRestUntil pins the bound a run's checkpoint eligibility rests
// on: at every time strictly before RestUntil the pulse equals Rest and both
// skew derivatives are zero, for leading-first and trailing-first pulses and
// both ramp shapes. At RestUntil itself the linear ramp's derivative is
// already nonzero, so the bound is strict.
func TestDataPulseRestUntil(t *testing.T) {
	for _, shape := range []RampShape{RampSmooth, RampLinear} {
		for _, sk := range [][2]float64{{200e-12, 150e-12}, {900e-12, 400e-12}, {300e-12, -1.5e-9}} {
			d := mkPulse(t, shape)
			d.SetSkews(sk[0], sk[1])
			tq := d.RestUntil(sk[0], sk[1])
			for _, tb := range []float64{0, tq - 1e-9, math.Nextafter(tq, math.Inf(-1))} {
				if v, zs, zh := d.V(tb), d.DTauS(tb), d.DTauH(tb); v != d.Rest || zs != 0 || zh != 0 {
					t.Errorf("%v skews %v: at %g, before RestUntil %g: V = %v, zs = %v, zh = %v", shape, sk, tb, tq, v, zs, zh)
				}
			}
			if shape == RampLinear && d.DTauS(tq) == 0 && d.DTauH(tq) == 0 {
				t.Errorf("skews %v: linear ramp still at rest at RestUntil %g", sk, tq)
			}
		}
	}
	d := mkPulse(t, RampSmooth)
	if got := d.RestUntil(math.NaN(), 0); !math.IsNaN(got) {
		t.Errorf("RestUntil(NaN, 0) = %v, want NaN", got)
	}
	if got := d.RestUntil(0, math.NaN()); !math.IsNaN(got) {
		t.Errorf("RestUntil(0, NaN) = %v, want NaN", got)
	}
}

func TestDataPulseSkewsAccessor(t *testing.T) {
	d := mkPulse(t, RampSmooth)
	s, h := d.Skews()
	if s != 200e-12 || h != 150e-12 {
		t.Errorf("Skews = %v, %v", s, h)
	}
}

func TestRampShapeString(t *testing.T) {
	if RampSmooth.String() != "smooth" || RampLinear.String() != "linear" {
		t.Error("String wrong")
	}
	if RampShape(9).String() == "" {
		t.Error("unknown shape should still format")
	}
}

func TestDataPulseContinuity(t *testing.T) {
	// The waveform must be continuous everywhere (no jumps), even across
	// ramp boundaries, for both shapes.
	for _, shape := range []RampShape{RampSmooth, RampLinear} {
		d := mkPulse(t, shape)
		prevT := 10.5e-9
		prevV := d.V(prevT)
		for i := 1; i <= 2000; i++ {
			tt := 10.5e-9 + float64(i)*0.5e-12
			v := d.V(tt)
			// Max profile slope ≈ 1.5·swing/rise (smoothstep peak), i.e.
			// ≤ 0.02 V per 0.5 ps sample; anything much larger is a jump.
			if math.Abs(v-prevV) > 0.05 {
				t.Fatalf("%v: jump at t=%v: %v -> %v", shape, tt, prevV, v)
			}
			prevV = v
		}
	}
}
