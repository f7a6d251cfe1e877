package latchchar

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestBlockEvalMatchesScalarOnDecks is the block-transient exactness table:
// for every example netlist deck, in BE and TRAP, EvalBlock at block sizes
// 1, 2, 4 and 8 must reproduce the scalar path's state-transition values bit
// for bit, and an 8-lane EvalGradBlock must reproduce EvalGrad's h and
// gradient bit for bit on every lane, at the deck's points and around the
// knee of each built-in cell. The probe points are the characterized
// contour — the operating region the trace loop actually feeds the kernel.
// One evaluator per method serves both paths and runs every block after
// scalar evaluations, so a lane that depended on what ran before would show.
func TestBlockEvalMatchesScalarOnDecks(t *testing.T) {
	decks, err := filepath.Glob(filepath.Join("examples", "netlists", "*.cir"))
	if err != nil {
		t.Fatal(err)
	}
	if len(decks) == 0 {
		t.Fatal("no example decks found")
	}
	methods := []EvalConfig{{Method: BE}, {Method: TRAP}}

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
			type table struct {
				ev   *Evaluator
				pts  []ContourPoint
				want []float64
			}
			tables := make([]table, len(methods))
			for m, cfg := range methods {
				res, err := Characterize(cell, Options{
					Points:         8,
					BothDirections: true,
					Eval:           cfg,
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
				ev, err := NewEvaluator(cell, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := make([]float64, len(pts))
				for j, p := range pts {
					if want[j], err = ev.Eval(p.TauS, p.TauH); err != nil {
						t.Fatalf("scalar eval (%g, %g): %v", p.TauS, p.TauH, err)
					}
				}
				tables[m] = table{ev, pts, want}
			}

			for _, k := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("block=%d", k), func(t *testing.T) {
					for m, tb := range tables {
						for lo := 0; lo < len(tb.pts); lo += k {
							hi := min(lo+k, len(tb.pts))
							tauS := make([]float64, 0, k)
							tauH := make([]float64, 0, k)
							for _, p := range tb.pts[lo:hi] {
								tauS = append(tauS, p.TauS)
								tauH = append(tauH, p.TauH)
							}
							got, err := tb.ev.EvalBlock(tauS, tauH)
							if err != nil {
								t.Fatalf("%v block eval points [%d:%d]: %v", methods[m].Method, lo, hi, err)
							}
							for i, v := range got {
								if math.Float64bits(v) != math.Float64bits(tb.want[lo+i]) {
									t.Errorf("%v point %d: h %v, scalar %v", methods[m].Method, lo+i, v, tb.want[lo+i])
								}
							}
						}
					}
				})
			}

			for _, tb := range tables {
				checkGradBlock(t, tb.ev, tb.pts)
			}
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
			for _, cfg := range methods {
				res, err := Characterize(cell, Options{
					Points:         20,
					BothDirections: true,
					Eval:           cfg,
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
				ev, err := NewEvaluator(cell, cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkGradBlock(t, ev, pts[lo:lo+8])
			}
		})
	}
}

// checkGradBlock evaluates pts as one gradient block and holds every lane to
// the scalar EvalGrad bit for bit: h, ∂h/∂τs and ∂h/∂τh.
func checkGradBlock(t *testing.T, ev *Evaluator, pts []ContourPoint) {
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
	for i := range pts {
		if errs[i] != nil {
			t.Fatalf("grad block lane %d: %v", i, errs[i])
		}
		h, ds, dh, err := ev.EvalGrad(tauS[i], tauH[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(hb[i]) != math.Float64bits(h) ||
			math.Float64bits(dsb[i]) != math.Float64bits(ds) ||
			math.Float64bits(dhb[i]) != math.Float64bits(dh) {
			t.Errorf("grad block lane %d: (%v, %v, %v), scalar (%v, %v, %v)",
				i, hb[i], dsb[i], dhb[i], h, ds, dh)
		}
	}
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

// TestBlockBruteForceIsReproducible runs parallel 8-lane block surfaces again
// and again. Rows land on the four workers' evaluators in a different order
// each run, so every run equals the Block: 0 surface in every cell only if
// no lane's result depends on what its evaluator ran before.
func TestBlockBruteForceIsReproducible(t *testing.T) {
	const runs = 20
	eng, err := NewEngine(EngineOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	for _, name := range []string{"tspc", "tgate"} {
		t.Run(name, func(t *testing.T) {
			cell, err := CellByName(name)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := eng.BruteForce(ctx, cell, SurfaceOptions{N: 8})
			if err != nil {
				t.Fatal(err)
			}
			for run := 0; run < runs; run++ {
				got, err := eng.BruteForce(ctx, cell, SurfaceOptions{N: 8, Block: 8, Parallelism: 4})
				if err != nil {
					t.Fatal(err)
				}
				differ := 0
				for i, row := range got.Surface.V {
					for j, v := range row {
						if math.Float64bits(v) != math.Float64bits(ref.Surface.V[i][j]) {
							differ++
						}
					}
				}
				if differ > 0 {
					t.Errorf("run %d: %d of %d cells differ from the Block: 0 surface", run, differ, got.Sims)
				}
			}
		})
	}
}
