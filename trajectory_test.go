package latchchar

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"latchchar/internal/transient"
)

// TestEvalAndEvalGradShareOneTrajectory pins that a gradient transient
// follows the plain transient's trajectory: at every point of a 20-point
// both-ways contour, on every example deck and built-in cell in BE and
// TRAP, Eval and EvalGrad return the same h bit for bit. The sensitivity
// solves back-substitute against the last Newton LU, so adding them changes
// nothing about the state. A fresh evaluator runs the check, evaluating
// each point with Eval and then EvalGrad, so both of its engines see the
// same sequence of runs and their LU pivot analyses the same matrices.
func TestEvalAndEvalGradShareOneTrajectory(t *testing.T) {
	decks, err := filepath.Glob(filepath.Join("examples", "netlists", "*.cir"))
	if err != nil {
		t.Fatal(err)
	}
	if len(decks) == 0 {
		t.Fatal("no example decks found")
	}
	type subject struct {
		name string
		cell func(t *testing.T) *Cell
	}
	var subjects []subject
	for _, path := range decks {
		name := filepath.Base(path)
		subjects = append(subjects, subject{name, func(t *testing.T) *Cell {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			deck, err := ParseNetlistString(string(src))
			if err != nil {
				t.Fatal(err)
			}
			return deck.Cell(name)
		}})
	}
	for _, name := range []string{"tspc", "c2mos", "tgate"} {
		subjects = append(subjects, subject{name, func(t *testing.T) *Cell {
			cell, err := CellByName(name)
			if err != nil {
				t.Fatal(err)
			}
			return cell
		}})
	}

	for _, s := range subjects {
		for _, m := range []transient.Method{BE, TRAP} {
			t.Run(s.name+"/"+m.String(), func(t *testing.T) {
				cell := s.cell(t)
				cfg := EvalConfig{Method: m}
				res, err := Characterize(cell, Options{Points: 20, BothDirections: true, Eval: cfg})
				if err != nil {
					t.Fatal(err)
				}
				pts := res.Contour.Points
				if len(pts) < 20 {
					t.Fatalf("traced only %d contour points", len(pts))
				}
				ev, err := NewEvaluator(cell, cfg)
				if err != nil {
					t.Fatal(err)
				}
				differ := 0
				for _, p := range pts {
					h, err := ev.Eval(p.TauS, p.TauH)
					if err != nil {
						t.Fatalf("Eval(%g, %g): %v", p.TauS, p.TauH, err)
					}
					hg, _, _, err := ev.EvalGrad(p.TauS, p.TauH)
					if err != nil {
						t.Fatalf("EvalGrad(%g, %g): %v", p.TauS, p.TauH, err)
					}
					if math.Float64bits(h) != math.Float64bits(hg) {
						if differ == 0 {
							t.Errorf("at (%g, %g): Eval h = %v, EvalGrad h = %v (Δ %.3g V)",
								p.TauS, p.TauH, h, hg, hg-h)
						}
						differ++
					}
				}
				if differ > 0 {
					t.Errorf("Eval and EvalGrad differ at %d of %d contour points", differ, len(pts))
				}
			})
		}
	}
}
