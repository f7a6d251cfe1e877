package latchchar

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestBlockEvalMatchesScalarOnDecks is the block-transient exactness table:
// for every example netlist deck, EvalBlock at block sizes 1, 2, 4 and 8
// must reproduce the scalar path's state-transition values within 3 µV, and
// an 8-lane EvalGradBlock must reproduce EvalGrad on every lane, at the
// deck's points and around the knee of each built-in cell. The probe points
// are the characterized contour — the operating region the trace loop
// actually feeds the kernel. One evaluator serves both paths, so
// calibration and grid are identical and the comparison isolates the
// lockstep kernel.
func TestBlockEvalMatchesScalarOnDecks(t *testing.T) {
	const gate = 3e-6
	decks, err := filepath.Glob(filepath.Join("examples", "netlists", "*.cir"))
	if err != nil {
		t.Fatal(err)
	}
	if len(decks) == 0 {
		t.Fatal("no example decks found")
	}

	for _, path := range decks {
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			deck, err := ParseNetlistString(string(src))
			if err != nil {
				t.Fatal(err)
			}
			cell := deck.Cell(name)
			res, err := Characterize(cell, Options{
				Points:         8,
				BothDirections: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			pts := res.Contour.Points
			if len(pts) > 8 {
				pts = pts[:8]
			}
			if len(pts) < 4 {
				t.Fatalf("deck traced only %d contour points", len(pts))
			}
			ev, err := NewEvaluator(cell, EvalConfig{})
			if err != nil {
				t.Fatal(err)
			}

			want := make([]float64, len(pts))
			for j, p := range pts {
				if want[j], err = ev.Eval(p.TauS, p.TauH); err != nil {
					t.Fatalf("scalar eval (%g, %g): %v", p.TauS, p.TauH, err)
				}
			}

			for _, k := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("block=%d", k), func(t *testing.T) {
					var worst float64
					for lo := 0; lo < len(pts); lo += k {
						hi := lo + k
						if hi > len(pts) {
							hi = len(pts)
						}
						tauS := make([]float64, 0, k)
						tauH := make([]float64, 0, k)
						for _, p := range pts[lo:hi] {
							tauS = append(tauS, p.TauS)
							tauH = append(tauH, p.TauH)
						}
						got, err := ev.EvalBlock(tauS, tauH)
						if err != nil {
							t.Fatalf("block eval points [%d:%d]: %v", lo, hi, err)
						}
						for i, v := range got {
							if d := math.Abs(v - want[lo+i]); d > worst {
								worst = d
							}
						}
					}
					if worst > gate {
						t.Errorf("block size %d deviates %.3g V from the scalar path (gate %.3g V)",
							k, worst, gate)
					}
					t.Logf("block size %d: worst |Δh| %.3g V over %d points", k, worst, len(pts))
				})
			}

			checkGradBlock(t, ev, pts, gate)
		})
	}

	// Built-in cells: the 8 points around the knee (minimum τs+τh), where
	// the lanes differ most.
	for _, name := range []string{"tspc", "c2mos", "tgate"} {
		t.Run(name, func(t *testing.T) {
			cell, err := CellByName(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Characterize(cell, Options{
				Points:         20,
				BothDirections: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			pts := res.Contour.Points
			if len(pts) < 8 {
				t.Fatalf("cell traced only %d contour points", len(pts))
			}
			knee := 0
			for i, p := range pts {
				if p.TauS+p.TauH < pts[knee].TauS+pts[knee].TauH {
					knee = i
				}
			}
			lo := min(max(knee-4, 0), len(pts)-8)
			ev, err := NewEvaluator(cell, EvalConfig{})
			if err != nil {
				t.Fatal(err)
			}
			checkGradBlock(t, ev, pts[lo:lo+8], gate)
		})
	}
}

// checkGradBlock evaluates pts as one gradient block and holds every lane to
// the scalar EvalGrad: h within gate, sensitivities to 0.1% relative (they
// feed the Newton corrector, not the accepted contour).
func checkGradBlock(t *testing.T, ev *Evaluator, pts []ContourPoint, gate float64) {
	t.Helper()
	tauS := make([]float64, len(pts))
	tauH := make([]float64, len(pts))
	for i, p := range pts {
		tauS[i], tauH[i] = p.TauS, p.TauH
	}
	hb, dsb, dhb, errs, err := ev.EvalGradBlock(tauS, tauH)
	if err != nil {
		t.Fatal(err)
	}
	relErr := func(got, want float64) float64 {
		return math.Abs(got-want) / math.Max(math.Abs(want), 1e-12)
	}
	var worstH, worstG float64
	for i := range pts {
		if errs[i] != nil {
			t.Fatalf("grad block lane %d: %v", i, errs[i])
		}
		h, ds, dh, err := ev.EvalGrad(tauS[i], tauH[i])
		if err != nil {
			t.Fatal(err)
		}
		d := math.Abs(hb[i] - h)
		if d > gate {
			t.Errorf("grad block lane %d: h deviates %.3g V from scalar (gate %.3g V)", i, d, gate)
		}
		e := math.Max(relErr(dsb[i], ds), relErr(dhb[i], dh))
		if e > 1e-3 {
			t.Errorf("grad block lane %d: sensitivities (%g, %g) deviate from scalar (%g, %g)",
				i, dsb[i], dhb[i], ds, dh)
		}
		worstH, worstG = math.Max(worstH, d), math.Max(worstG, e)
	}
	t.Logf("%d-lane grad block: worst |Δh| %.3g V, worst relative gradient error %.3g",
		len(pts), worstH, worstG)
}

// TestBlockTraceAccuracyGate holds the block-corrected trace loop to the
// scalar path's acceptance bar: every contour point produced with
// Block-wide lookahead bundles must satisfy the exact state-transition
// equation within 3 µV.
func TestBlockTraceAccuracyGate(t *testing.T) {
	if testing.Short() {
		t.Skip("full characterization")
	}
	const hGate = 3e-6
	cell, err := CellByName("tspc")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Characterize(cell, Options{
		Points:         10,
		BothDirections: true,
		Block:          4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Contour.Points) < 10 {
		t.Fatalf("block trace produced only %d contour points", len(res.Contour.Points))
	}

	ev, err := NewEvaluator(cell, EvalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for _, p := range res.Contour.Points {
		h, err := ev.Eval(p.TauS, p.TauH)
		if err != nil {
			t.Fatal(err)
		}
		if a := math.Abs(h); a > worst {
			worst = a
		}
	}
	if worst > hGate {
		t.Errorf("block-traced contour violates the exact state-transition equation by %.3g V (gate %.3g V)",
			worst, hGate)
	}
	t.Logf("%d contour points, worst |h_exact| %.3g V, shared steps %d, peel-offs %d",
		len(res.Contour.Points), worst, res.Stats.BlockSharedSteps, res.Stats.BlockPeelOffs)
}
