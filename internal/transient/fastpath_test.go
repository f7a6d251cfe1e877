package transient

import (
	"math"
	"testing"

	"latchchar/internal/circuit"
	"latchchar/internal/device"
	"latchchar/internal/solver"
	"latchchar/internal/wave"
)

// buildClockedInverter builds the nonlinear CMOS inverter used by the
// fast-path tests: a clock-driven input so successive steps alternate
// between quiescent stretches (where chord and bypass shine) and sharp
// transitions (where the fallback must engage).
func buildClockedInverter(t *testing.T) (*circuit.Circuit, circuit.UnknownID, []float64) {
	t.Helper()
	ckt := circuit.New()
	vddN := ckt.Node("vdd")
	in := ckt.Node("in")
	out := ckt.Node("out")
	addV := func(name string, p circuit.UnknownID, w wave.Waveform, role device.SourceRole) {
		v, err := device.NewVSource(name, p, circuit.Ground, w, role)
		if err != nil {
			t.Fatal(err)
		}
		ckt.AddDevice(v)
	}
	clk := wave.Clock{Low: 0, High: 2.5, Period: 4e-9, Delay: 1e-9, Rise: 0.1e-9, Fall: 0.1e-9, Shape: wave.RampSmooth}
	addV("vdd", vddN, wave.DC(2.5), device.RoleSupply)
	addV("vin", in, clk, device.RoleClock)
	nm := device.MOSModel{Type: device.NMOS, VT0: 0.43, KP: 115e-6, Lambda: 0.06, Cox: 6e-3, CJ: 1e-9}
	pm := device.MOSModel{Type: device.PMOS, VT0: 0.40, KP: 30e-6, Lambda: 0.10, Cox: 6e-3, CJ: 1e-9}
	mp, err := device.NewMOSFET("mp", out, in, vddN, vddN, pm, 8e-6, 0.25e-6)
	if err != nil {
		t.Fatal(err)
	}
	ckt.AddDevice(mp)
	mn, err := device.NewMOSFET("mn", out, in, circuit.Ground, circuit.Ground, nm, 4e-6, 0.25e-6)
	if err != nil {
		t.Fatal(err)
	}
	ckt.AddDevice(mn)
	cl, err := device.NewCapacitor("cl", out, circuit.Ground, 20e-15)
	if err != nil {
		t.Fatal(err)
	}
	ckt.AddDevice(cl)
	if err := ckt.Finalize(); err != nil {
		t.Fatal(err)
	}
	x0, _, err := solver.DCOperatingPoint(ckt, 0, nil, solver.DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ckt, out, x0
}

// TestPlainStepElidesConvergedFactorization pins the satellite bugfix: with
// Skews off the per-step converged-state eval + factorization is gone, so a
// plain run factorizes exactly once per Newton iteration — a drop of one
// factorization per step versus the old unconditional behavior. A Skews run
// (without the fast path) keeps the converged-state factorization.
func TestPlainStepElidesConvergedFactorization(t *testing.T) {
	ckt, _, x0 := buildClockedInverter(t)
	g, err := UniformGrid(0, 4e-9, 400)
	if err != nil {
		t.Fatal(err)
	}

	res, err := NewEngine(ckt, Options{}).Run(x0, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Factorizations != res.Stats.NewtonIters {
		t.Errorf("plain run: %d factorizations, want exactly NewtonIters = %d (converged-state factorization not elided)",
			res.Stats.Factorizations, res.Stats.NewtonIters)
	}

	resS, err := NewEngine(ckt, Options{Skews: true}).Run(x0, g)
	if err != nil {
		t.Fatal(err)
	}
	if want := resS.Stats.NewtonIters + resS.Stats.Steps; resS.Stats.Factorizations != want {
		t.Errorf("skews run: %d factorizations, want NewtonIters+Steps = %d", resS.Stats.Factorizations, want)
	}
	if resS.Stats.JacobianReuses != 0 {
		t.Errorf("skews run without chord reused %d Jacobians, want 0", resS.Stats.JacobianReuses)
	}
}

// TestChordMatchesFullNewton runs the same nonlinear transient exact and
// with the full fast path (chord + device bypass) and requires the fast
// path to (a) agree with the exact solution within Newton-tolerance scale,
// (b) actually engage, and (c) save factorizations.
func TestChordMatchesFullNewton(t *testing.T) {
	ckt, out, x0 := buildClockedInverter(t)
	g, err := UniformGrid(0, 4e-9, 400)
	if err != nil {
		t.Fatal(err)
	}

	exact, err := NewEngine(ckt, Options{}).Run(x0, g)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewEngine(ckt, Options{Fast: true}).Run(x0, g)
	if err != nil {
		t.Fatal(err)
	}

	var maxDiff float64
	for i := range exact.X {
		if d := math.Abs(exact.X[i] - fast.X[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-4 {
		t.Errorf("fast-path final state deviates by %.3g V from exact (out exact %.6f, fast %.6f)",
			maxDiff, exact.X[out], fast.X[out])
	}
	if fast.Stats.ChordIters == 0 {
		t.Error("fast path never took a chord iteration")
	}
	if fast.Stats.DeviceBypasses == 0 {
		t.Error("fast path never bypassed a device evaluation")
	}
	if fast.Stats.Factorizations >= exact.Stats.Factorizations {
		t.Errorf("fast path used %d factorizations, exact used %d — no saving",
			fast.Stats.Factorizations, exact.Stats.Factorizations)
	}
	t.Logf("factorizations: exact %d, fast %d (%.0f%% fewer); chord iters %d/%d, bypasses %d",
		exact.Stats.Factorizations, fast.Stats.Factorizations,
		100*(1-float64(fast.Stats.Factorizations)/float64(exact.Stats.Factorizations)),
		fast.Stats.ChordIters, fast.Stats.NewtonIters, fast.Stats.DeviceBypasses)
}

// TestChordSensitivityReuse checks the Skews-side fast path: sensitivities
// from a fast run with Jacobian reuse must track the exact-path
// sensitivities, and at least some quiescent steps must reuse the standing
// factorization instead of building the converged-state one.
func TestChordSensitivityReuse(t *testing.T) {
	ckt := circuit.New()
	in := ckt.Node("in")
	mid := ckt.Node("mid")
	dp, err := wave.NewDataPulse(5e-9, 0, 2.5, 0.1e-9, 0.1e-9, wave.RampSmooth)
	if err != nil {
		t.Fatal(err)
	}
	dp.SetSkews(500e-12, 400e-12)
	vs, err := device.NewVSource("vin", in, circuit.Ground, dp, device.RoleData)
	if err != nil {
		t.Fatal(err)
	}
	ckt.AddDevice(vs)
	r, err := device.NewResistor("r", in, mid, 1e3)
	if err != nil {
		t.Fatal(err)
	}
	ckt.AddDevice(r)
	c, err := device.NewCapacitor("c", mid, circuit.Ground, 0.1e-12)
	if err != nil {
		t.Fatal(err)
	}
	ckt.AddDevice(c)
	if err := ckt.Finalize(); err != nil {
		t.Fatal(err)
	}
	x0 := make([]float64, ckt.N())
	g, err := UniformGrid(0, 6e-9, 1200)
	if err != nil {
		t.Fatal(err)
	}

	exact, err := NewEngine(ckt, Options{Skews: true}).Run(x0, g)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewEngine(ckt, Options{Skews: true, Fast: true}).Run(x0, g)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Stats.JacobianReuses == 0 {
		t.Error("chord+skews run never reused a factorization for the sensitivity solves")
	}
	if fast.Stats.Factorizations >= exact.Stats.Factorizations {
		t.Errorf("chord+skews used %d factorizations, exact used %d — no saving",
			fast.Stats.Factorizations, exact.Stats.Factorizations)
	}
	for i := range exact.Ms {
		scale := math.Max(math.Abs(exact.Ms[i]), 1)
		if d := math.Abs(exact.Ms[i]-fast.Ms[i]) / scale; d > 1e-3 {
			t.Errorf("ms[%d]: exact %.6g, fast %.6g (rel diff %.3g)", i, exact.Ms[i], fast.Ms[i], d)
		}
		scale = math.Max(math.Abs(exact.Mh[i]), 1)
		if d := math.Abs(exact.Mh[i]-fast.Mh[i]) / scale; d > 1e-3 {
			t.Errorf("mh[%d]: exact %.6g, fast %.6g (rel diff %.3g)", i, exact.Mh[i], fast.Mh[i], d)
		}
	}
	t.Logf("jacobian reuses %d/%d steps; factorizations exact %d, fast %d",
		fast.Stats.JacobianReuses, fast.Stats.Steps,
		exact.Stats.Factorizations, fast.Stats.Factorizations)
}

// TestChordStallFallsBackOnStiffStep drives the nonlinear inverter with a
// deliberately coarse grid: every step crosses a large part of a transition,
// so chord iterations against the stale Jacobian stall and the engine must
// transparently fall back to full Newton — converging everywhere, with some
// chord iterations taken and no ErrNewtonFailure.
func TestChordStallFallsBackOnStiffStep(t *testing.T) {
	ckt, _, x0 := buildClockedInverter(t)
	// 200 ps steps against 100 ps edges: the input slews rail-to-rail within
	// a single step.
	g, err := UniformGrid(0, 4e-9, 20)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewEngine(ckt, Options{}).Run(x0, g)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewEngine(ckt, Options{Fast: true}).Run(x0, g)
	if err != nil {
		t.Fatalf("chord run failed on stiff grid (fallback broken): %v", err)
	}
	if fast.Stats.ChordIters == 0 {
		t.Error("stiff chord run took no chord iterations at all")
	}
	// Fallback means full factorizations still happen after stalls.
	if fast.Stats.Factorizations == 0 {
		t.Error("stiff chord run never rebuilt the Jacobian")
	}
	var maxDiff float64
	for i := range exact.X {
		if d := math.Abs(exact.X[i] - fast.X[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-4 {
		t.Errorf("stiff chord run deviates by %.3g V from exact", maxDiff)
	}
}

// TestDeviceBypassAccuracy checks the bypass half of the fast path over the
// whole waveform, not just the final state: the same transient exact and
// with Fast, requiring bypasses to happen and the recorded output to agree
// within the bypass tolerance scale.
func TestDeviceBypassAccuracy(t *testing.T) {
	ckt, out, x0 := buildClockedInverter(t)
	g, err := UniformGrid(0, 4e-9, 400)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewEngine(ckt, Options{Probes: []circuit.UnknownID{out}}).Run(x0, g)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewEngine(ckt, Options{Probes: []circuit.UnknownID{out}, Fast: true}).Run(x0, g)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Stats.DeviceBypasses == 0 {
		t.Error("no device evaluations bypassed on a mostly-quiescent clocked waveform")
	}
	var maxDiff float64
	for k := range exact.Probes[0] {
		if d := math.Abs(exact.Probes[0][k] - fast.Probes[0][k]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-4 {
		t.Errorf("bypassed waveform deviates by %.3g V from exact", maxDiff)
	}
	t.Logf("device bypasses: %d; max waveform deviation %.3g V", fast.Stats.DeviceBypasses, maxDiff)
}
