package vet_test

import (
	"strings"
	"testing"

	"latchchar/internal/core"
	"latchchar/internal/netlist"
	"latchchar/internal/registers"
	"latchchar/internal/stf"
	"latchchar/internal/vet"
)

// baseDeck is a minimal clean characterization deck: a resistor-loaded
// clocked pulldown with every node conductively grounded, aligned data and
// clock references, and sane values.
const baseDeck = `
.model nch nmos VT0=0.43 KP=115u LAMBDA=0.06 COX=6m CJ=0.6n
Vdd  vdd 0 DC 2.5
Vclk clk 0 CLOCK(0 2.5 10n 1n 0.1n 0.1n)
Vd   d   0 DATA(11.05n 2.5 0 0.1n 0.1n)
R1 vdd q 10k
M1 q  d   s1 0 nch W=0.6u L=0.25u
M2 s1 clk 0  0 nch W=0.6u L=0.25u
.out q
.vdd 2.5
`

// buildTarget parses a deck and returns the built instance.
func buildInstance(t *testing.T, deck string) *registers.Instance {
	t.Helper()
	d, err := netlist.ParseString(deck)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	inst, err := d.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return inst
}

// runCheck vets the instance with exactly one analyzer enabled.
func runCheck(t *testing.T, inst *registers.Instance, check string, spec vet.Spec) *vet.Report {
	t.Helper()
	rep, err := vet.VetInstance("test", inst, spec, vet.Options{Enable: []string{check}})
	if err != nil {
		t.Fatalf("vet: %v", err)
	}
	return rep
}

// wantDiag asserts a diagnostic with the given severity whose node, device,
// param or message contains needle.
func wantDiag(t *testing.T, rep *vet.Report, sev vet.Severity, needle string) {
	t.Helper()
	for _, d := range rep.Diagnostics {
		if d.Severity != sev {
			continue
		}
		if strings.Contains(d.Node, needle) || strings.Contains(d.Device, needle) ||
			strings.Contains(d.Param, needle) || strings.Contains(d.Message, needle) {
			return
		}
	}
	t.Errorf("no %s diagnostic matching %q in %v", sev, needle, rep.Diagnostics)
}

func wantClean(t *testing.T, rep *vet.Report) {
	t.Helper()
	if len(rep.Diagnostics) != 0 {
		t.Errorf("expected no diagnostics, got %v", rep.Diagnostics)
	}
}

func TestBuiltinCellsVetClean(t *testing.T) {
	for _, name := range []string{"tspc", "c2mos", "tgate"} {
		cell, err := registers.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := cell.Build()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := vet.VetInstance(name, inst, vet.Spec{}, vet.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Diagnostics) != 0 {
			t.Errorf("%s: built-in cell not clean: %v", name, rep.Diagnostics)
		}
		if len(rep.Checks) < 8 {
			t.Errorf("%s: only %d checks ran, want ≥ 8", name, len(rep.Checks))
		}
	}
}

func TestBaseDeckVetClean(t *testing.T) {
	inst := buildInstance(t, baseDeck)
	rep, err := vet.VetInstance("base", inst, vet.Spec{}, vet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantClean(t, rep)
}

func TestFloatingNode(t *testing.T) {
	inst := buildInstance(t, baseDeck+"Cf f1 f2 5f\n")
	rep := runCheck(t, inst, "floating-node", vet.Spec{})
	wantDiag(t, rep, vet.Error, "f1")
	wantDiag(t, rep, vet.Error, "f2")
	if rep.Count(vet.Error) != 2 {
		t.Errorf("want exactly 2 errors, got %v", rep.Diagnostics)
	}
	wantClean(t, runCheck(t, buildInstance(t, baseDeck), "floating-node", vet.Spec{}))
}

func TestNoGroundPath(t *testing.T) {
	inst := buildInstance(t, baseDeck+"R2 a b 1k\n")
	rep := runCheck(t, inst, "no-ground-path", vet.Spec{})
	wantDiag(t, rep, vet.Error, "a")
	wantDiag(t, rep, vet.Error, "b")
	wantClean(t, runCheck(t, buildInstance(t, baseDeck), "no-ground-path", vet.Spec{}))
}

func TestSingleTerminal(t *testing.T) {
	inst := buildInstance(t, baseDeck+"R2 q stub 1k\n")
	rep := runCheck(t, inst, "single-terminal", vet.Spec{})
	wantDiag(t, rep, vet.Warning, "stub")
	if rep.Count(vet.Warning) != 1 {
		t.Errorf("want exactly 1 warning, got %v", rep.Diagnostics)
	}
}

func TestClockWindow(t *testing.T) {
	// High phase (9.95 ns from ramp start) plus fall overruns the period.
	bad := strings.Replace(baseDeck,
		"CLOCK(0 2.5 10n 1n 0.1n 0.1n)",
		"CLOCK(0 2.5 10n 1n 0.1n 0.1n 9.95n)", 1)
	rep := runCheck(t, buildInstance(t, bad), "clock-window", vet.Spec{})
	wantDiag(t, rep, vet.Error, "exceeds the period")

	// A ramp shorter than the fine timestep is under-resolved.
	fast := strings.Replace(baseDeck,
		"CLOCK(0 2.5 10n 1n 0.1n 0.1n)",
		"CLOCK(0 2.5 10n 1n 1p 0.1n)", 1)
	rep = runCheck(t, buildInstance(t, fast), "clock-window", vet.Spec{})
	wantDiag(t, rep, vet.Warning, "fine timestep")

	wantClean(t, runCheck(t, buildInstance(t, baseDeck), "clock-window", vet.Spec{}))
}

func TestEventOrder(t *testing.T) {
	inst := buildInstance(t, baseDeck)
	// Sweep box reaching past the active edge pushes the data lead ramp
	// before t = 0: tf unreachable.
	wide := vet.Spec{Bounds: core.Rect{MinS: 1e-12, MaxS: 12e-9, MinH: 1e-12, MaxH: 0.5e-9}}
	rep := runCheck(t, inst, "event-order", wide)
	wantDiag(t, rep, vet.Error, "before t = 0")

	// A data reference away from any rising clock edge is suspicious.
	skewed := strings.Replace(baseDeck, "DATA(11.05n", "DATA(13.4n", 1)
	rep = runCheck(t, buildInstance(t, skewed), "event-order", vet.Spec{})
	wantDiag(t, rep, vet.Warning, "not aligned")

	wantClean(t, runCheck(t, inst, "event-order", vet.Spec{}))
}

func TestOutputNode(t *testing.T) {
	// Output forced by an ideal source: clock-to-Q unobservable.
	forced := strings.Replace(baseDeck, ".out q", ".out d", 1)
	rep := runCheck(t, buildInstance(t, forced), "output-node", vet.Spec{})
	wantDiag(t, rep, vet.Warning, "ideal voltage source")

	// Output hanging on a capacitor only.
	capOnly := strings.Replace(baseDeck, ".out q", ".out qc", 1) + "Cc qc 0 10f\n"
	rep = runCheck(t, buildInstance(t, capOnly), "output-node", vet.Spec{})
	wantDiag(t, rep, vet.Warning, "capacitively coupled")

	wantClean(t, runCheck(t, buildInstance(t, baseDeck), "output-node", vet.Spec{}))
}

func TestValueSanity(t *testing.T) {
	// 25 F capacitor (dropped "f" suffix).
	rep := runCheck(t, buildInstance(t, baseDeck+"Cbig q 0 25\n"), "value-sanity", vet.Spec{})
	wantDiag(t, rep, vet.Error, "Cbig")

	// Millimetre-scale channel (dropped "u" suffix).
	wide := strings.Replace(baseDeck, "M1 q  d   s1 0 nch W=0.6u", "M1 q  d   s1 0 nch W=0.6", 1)
	rep = runCheck(t, buildInstance(t, wide), "value-sanity", vet.Spec{})
	wantDiag(t, rep, vet.Error, "M1")

	// Tera-ohm resistor.
	rep = runCheck(t, buildInstance(t, baseDeck+"Rbig q 0 5T\n"), "value-sanity", vet.Spec{})
	wantDiag(t, rep, vet.Warning, "Rbig")

	wantClean(t, runCheck(t, buildInstance(t, baseDeck), "value-sanity", vet.Spec{}))
}

func TestMPNRConfig(t *testing.T) {
	inst := buildInstance(t, baseDeck)
	// Step larger than the sweep box.
	rep := runCheck(t, inst, "mpnr-config", vet.Spec{
		Step:   2e-9,
		Bounds: core.Rect{MinS: 1e-12, MaxS: 1e-9, MinH: 1e-12, MaxH: 1e-9},
	})
	wantDiag(t, rep, vet.Error, "step")

	// Degradation fraction outside (0, 1).
	rep = runCheck(t, inst, "mpnr-config", vet.Spec{Eval: stf.Config{Degrade: 1.5}})
	wantDiag(t, rep, vet.Error, "degrade")

	// Crossing fraction outside (0, 1) on the instance.
	badCF := buildInstance(t, baseDeck)
	badCF.CrossFrac = 1.2
	rep = runCheck(t, badCF, "mpnr-config", vet.Spec{})
	wantDiag(t, rep, vet.Error, "crossfrac")

	// Declared VDD above the strongest rail makes r collide with the rail.
	badVDD := buildInstance(t, baseDeck)
	badVDD.VDD = 5.0
	rep = runCheck(t, badVDD, "mpnr-config", vet.Spec{})
	wantDiag(t, rep, vet.Error, "unreachable")

	wantClean(t, runCheck(t, inst, "mpnr-config", vet.Spec{}))
}

func TestSimWindow(t *testing.T) {
	inst := buildInstance(t, baseDeck)
	// Inverted two-phase grid.
	rep := runCheck(t, inst, "sim-window", vet.Spec{
		Eval: stf.Config{CoarseStep: 1e-12, FineStep: 5e-12},
	})
	wantDiag(t, rep, vet.Error, "finestep")

	// Calibration skew pushing the fine window before t = 0.
	rep = runCheck(t, inst, "sim-window", vet.Spec{Eval: stf.Config{CalSkew: 12e-9}})
	wantDiag(t, rep, vet.Error, "calibration fine window")

	// Calibration skew below the swept setup bound.
	rep = runCheck(t, inst, "sim-window", vet.Spec{
		Eval:   stf.Config{CalSkew: 0.5e-9},
		Bounds: core.Rect{MinS: 1e-12, MaxS: 0.9e-9, MinH: 1e-12, MaxH: 0.9e-9},
	})
	wantDiag(t, rep, vet.Warning, "calskew")

	wantClean(t, runCheck(t, inst, "sim-window", vet.Spec{}))
}

func TestSupplyRail(t *testing.T) {
	// Clock swinging above the 2.5 V rail.
	hot := strings.Replace(baseDeck, "CLOCK(0 2.5", "CLOCK(0 5", 1)
	rep := runCheck(t, buildInstance(t, hot), "supply-rail", vet.Spec{})
	wantDiag(t, rep, vet.Warning, "outside the supply rails")

	// No DC supply at all: energy measurements unavailable.
	noSupply := strings.Replace(baseDeck, "Vdd  vdd 0 DC 2.5\n", "", 1)
	noSupply = strings.Replace(noSupply, "R1 vdd q 10k", "R1 clk q 10k", 1)
	rep = runCheck(t, buildInstance(t, noSupply), "supply-rail", vet.Spec{})
	wantDiag(t, rep, vet.Info, "no DC supply")

	wantClean(t, runCheck(t, buildInstance(t, baseDeck), "supply-rail", vet.Spec{}))
}

func TestRegistrySelection(t *testing.T) {
	inst := buildInstance(t, baseDeck+"Cf f1 f2 5f\n")
	// Disable suppresses the check.
	rep, err := vet.VetInstance("t", inst, vet.Spec{}, vet.Options{
		Disable: []string{"floating-node", "no-ground-path", "single-terminal"},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantClean(t, rep)
	// Unknown names are typos, not silently ignored.
	if _, err := vet.VetInstance("t", inst, vet.Spec{}, vet.Options{Disable: []string{"flaoting-node"}}); err == nil {
		t.Error("unknown check in Disable accepted")
	}
	if _, err := vet.VetInstance("t", inst, vet.Spec{}, vet.Options{Enable: []string{"nope"}}); err == nil {
		t.Error("unknown check in Enable accepted")
	}
}

func TestDefaultRegistrySize(t *testing.T) {
	reg := vet.DefaultRegistry()
	if n := len(reg.Analyzers()); n < 8 {
		t.Errorf("registry has %d analyzers, want ≥ 8", n)
	}
	names := map[string]bool{}
	for _, a := range reg.Analyzers() {
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc", a.Name)
		}
		names[a.Name] = true
	}
	for _, required := range []string{
		"floating-node", "no-ground-path", "single-terminal",
		"clock-window", "event-order", "output-node",
		"value-sanity", "mpnr-config", "sim-window", "supply-rail",
	} {
		if !names[required] {
			t.Errorf("missing analyzer %q", required)
		}
	}
}

func TestDiagnosticOrdering(t *testing.T) {
	inst := buildInstance(t, baseDeck+"Cf f1 f2 5f\nR2 q stub 1k\n")
	rep, err := vet.VetInstance("t", inst, vet.Spec{}, vet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rep.Diagnostics); i++ {
		if rep.Diagnostics[i].Severity > rep.Diagnostics[i-1].Severity {
			t.Errorf("diagnostics not sorted errors-first: %v", rep.Diagnostics)
			break
		}
	}
	if !rep.HasErrors() {
		t.Error("expected errors")
	}
}
