package stf

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"latchchar/internal/netlist"
	"latchchar/internal/registers"
	"latchchar/internal/transient"
)

// subject is a register the trail and causality tests build evaluators for.
type subject struct {
	name  string
	build func() (*registers.Instance, error)
}

// cellsAndDecks returns every built-in cell and examples/netlists deck.
func cellsAndDecks(t *testing.T) []subject {
	t.Helper()
	var subjects []subject
	for _, name := range []string{"tspc", "c2mos", "tgate"} {
		cell, err := registers.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		subjects = append(subjects, subject{name, cell.Build})
	}
	decks, err := filepath.Glob(filepath.Join("..", "..", "examples", "netlists", "*.cir"))
	if err != nil || len(decks) == 0 {
		t.Fatalf("no example decks found: %v", err)
	}
	for _, path := range decks {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		deck, err := netlist.ParseString(string(src))
		if err != nil {
			t.Fatal(err)
		}
		subjects = append(subjects, subject{filepath.Base(path), deck.Build})
	}
	return subjects
}

// TestCausalHoldRayIsFlat: h reads the output at tf (paper eq. (4)), so a
// trailing data ramp that starts after tf cannot move it. On every built-in
// cell and examples/netlists deck, in BE and TRAP, at several τs, for τh
// from the first float64 whose DataPulse.LeadOnlyUntil lies past tf to
// well beyond it: Eval, each on a fresh evaluator so that it shares
// nothing past the rest trail's first state, and EvalGrad return the same
// h and ∂h/∂τs bit for bit at every such τh, and ∂h/∂τh is exactly 0.
func TestCausalHoldRayIsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("transient simulations in -short mode")
	}
	for _, s := range cellsAndDecks(t) {
		for _, m := range []transient.Method{transient.BE, transient.TRAP} {
			t.Run(s.name+"/"+m.String(), func(t *testing.T) {
				inst, err := s.build()
				if err != nil {
					t.Fatal(err)
				}
				e, err := NewEvaluator(inst, Config{Method: m})
				if err != nil {
					t.Fatal(err)
				}
				cal, d := e.Calibration(), inst.Data
				// τh_c, the first float64 whose trailing ramp starts past
				// tf, by bisection on the ramp start.
				past := func(tauH float64) bool { return d.LeadOnlyUntil(tauH) > cal.Tf }
				lo := cal.Tf - d.Edge50 + d.Fall/2 - 1e-12
				hi := lo + 2e-12
				if past(lo) || !past(hi) {
					t.Fatalf("τh bracket [%g, %g] misses the causal bound", lo, hi)
				}
				for {
					mid := lo + (hi-lo)/2
					if mid == lo || mid == hi {
						break
					}
					if past(mid) {
						hi = mid
					} else {
						lo = mid
					}
				}
				hc := hi
				if past(math.Nextafter(hc, math.Inf(-1))) {
					t.Fatalf("τh = %g is not the first past the causal bound", hc)
				}
				hs := []float64{hc, math.Nextafter(hc, math.Inf(1)), hc + 0.37e-12, hc + 25e-12, hc + 400e-12, 3e-9}
				for _, tauS := range []float64{120e-12, 300e-12, 550e-12} {
					var want [2]float64
					for i, tauH := range hs {
						fresh, err := NewEvaluatorWithCalibration(inst, Config{Method: m}, cal)
						if err != nil {
							t.Fatal(err)
						}
						h, err := fresh.Eval(tauS, tauH)
						if err != nil {
							t.Fatal(err)
						}
						hg, ds, dh, err := e.EvalGrad(tauS, tauH)
						if err != nil {
							t.Fatal(err)
						}
						what := fmt.Sprintf("(τs, τh) = (%g, τh_c + %g)", tauS, tauH-hc)
						if i == 0 {
							want = [2]float64{h, ds}
						}
						if math.Float64bits(h) != math.Float64bits(want[0]) || math.Float64bits(hg) != math.Float64bits(want[0]) ||
							math.Float64bits(ds) != math.Float64bits(want[1]) {
							t.Errorf("%s: Eval h %v, EvalGrad h %v, ∂h/∂τs %v; at τh_c both read h %v, ∂h/∂τs %v",
								what, h, hg, ds, want[0], want[1])
						}
						if dh != 0 {
							t.Errorf("%s: ∂h/∂τh = %v past the causal bound, want 0", what, dh)
						}
					}
				}
			})
		}
	}
}
