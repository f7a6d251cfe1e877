package latchchar

import (
	"math"
	"testing"

	"latchchar/internal/solver"
	"latchchar/internal/transient"
)

// TestChordFallbackOnStiffTSPC runs the chord fast path over the real TSPC
// register on a deliberately coarse grid: ~100 ps steps across 100 ps clock
// and data edges, so the Jacobian at the start of an edge step is badly
// stale and chord iterations stall. The engine must fall back to full
// Newton transparently — same answer as the exact path, no ErrNewtonFailure
// — while still serving chord iterations on the quiescent stretches.
func TestChordFallbackOnStiffTSPC(t *testing.T) {
	cell, err := CellByName("tspc")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := cell.Build()
	if err != nil {
		t.Fatal(err)
	}
	inst.Data.SetSkews(1.2e-9, 1.2e-9)
	x0, _, err := solver.DCOperatingPoint(inst.Circuit, 0, nil, solver.DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tEnd := inst.Edge50 + 2e-9
	g, err := transient.UniformGrid(0, tEnd, int(tEnd/100e-12))
	if err != nil {
		t.Fatal(err)
	}

	exact, err := transient.NewEngine(inst.Circuit, transient.Options{}).Run(x0, g)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := transient.NewEngine(inst.Circuit, transient.Options{Fast: true}).Run(x0, g)
	if err != nil {
		t.Fatalf("chord transient failed on stiff TSPC grid (fallback broken): %v", err)
	}
	if fast.Stats.ChordIters == 0 {
		t.Error("stiff TSPC chord run took no chord iterations")
	}
	// Stalled steps rebuild the Jacobian: full iterations beyond the very
	// first factorization prove the fallback engaged.
	if fast.Stats.Factorizations <= 1 {
		t.Errorf("stiff TSPC chord run factorized %d times; edge steps should have forced rebuilds",
			fast.Stats.Factorizations)
	}
	if fast.Stats.ChordIters >= fast.Stats.NewtonIters {
		t.Error("every iteration was a chord iteration; the stiff edges should have stalled some")
	}
	var maxDiff float64
	for i := range exact.X {
		if d := math.Abs(exact.X[i] - fast.X[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-4 {
		t.Errorf("stiff TSPC chord run deviates by %.3g V from exact", maxDiff)
	}
	t.Logf("chord iters %d/%d, factorizations %d (exact %d), max |Δx| %.3g V",
		fast.Stats.ChordIters, fast.Stats.NewtonIters,
		fast.Stats.Factorizations, exact.Stats.Factorizations, maxDiff)
}

// TestFastPathAccuracyGate is the tentpole acceptance gate: characterize
// TSPC and C²MOS exact and with the full fast path (chord + device bypass)
// and require (a) every fast-path contour point to satisfy the *exact*
// state-transition equation within MPNR's convergence tolerance scale —
// the fast path may relocate MPNR's iterates but not the contour it
// converges to — and (b) a substantial LU-factorization saving.
func TestFastPathAccuracyGate(t *testing.T) {
	// MPNR accepts a contour point at |h| ≤ HTol = 1e-6 V. The fast path
	// perturbs each transient by O(circuit.BypassVTol)-scale stamp staleness
	// (measured ~1e-7 V on the waveform), so exact-h at fast points must
	// stay within a small multiple of HTol.
	const hGate = 3e-6

	for _, tc := range []struct {
		cell    string
		minSave float64 // required fractional factorization saving
	}{
		{"tspc", 0.25}, // the ≥25% acceptance bar
		{"c2mos", 0.10},
	} {
		t.Run(tc.cell, func(t *testing.T) {
			cell, err := CellByName(tc.cell)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Points: 10, BothDirections: true}

			exact, err := Characterize(cell, opts)
			if err != nil {
				t.Fatal(err)
			}
			fastOpts := opts
			fastOpts.Eval = DefaultFastPath()
			fast, err := Characterize(cell, fastOpts)
			if err != nil {
				t.Fatal(err)
			}

			if fast.Stats.ChordIters == 0 {
				t.Error("fast path took no chord iterations")
			}
			if fast.Stats.DeviceBypasses == 0 {
				t.Error("fast path bypassed no device evaluations")
			}
			save := 1 - float64(fast.Stats.Factorizations)/float64(exact.Stats.Factorizations)
			if save < tc.minSave {
				t.Errorf("fast path saved %.0f%% of factorizations (%d vs %d), want ≥ %.0f%%",
					100*save, fast.Stats.Factorizations, exact.Stats.Factorizations, 100*tc.minSave)
			}

			// Re-evaluate every fast-path contour point with an exact
			// evaluator: the gate bounds the contour deviation in the
			// equation's own units (volts of h), independent of contour
			// geometry.
			ev, err := NewEvaluator(cell, EvalConfig{})
			if err != nil {
				t.Fatal(err)
			}
			var worst float64
			for _, p := range fast.Contour.Points {
				h, err := ev.Eval(p.TauS, p.TauH)
				if err != nil {
					t.Fatal(err)
				}
				if a := math.Abs(h); a > worst {
					worst = a
				}
			}
			if worst > hGate {
				t.Errorf("fast-path contour violates the exact state-transition equation by %.3g V (gate %.3g V)",
					worst, hGate)
			}
			t.Logf("%d contour points, worst |h_exact| %.3g V; factorizations %d → %d (%.0f%% fewer), chord %d, bypasses %d",
				len(fast.Contour.Points), worst,
				exact.Stats.Factorizations, fast.Stats.Factorizations, 100*save,
				fast.Stats.ChordIters, fast.Stats.DeviceBypasses)
		})
	}
}
