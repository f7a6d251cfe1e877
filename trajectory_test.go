package latchchar

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"latchchar/internal/solver"
	"latchchar/internal/transient"
)

// TestEvalAndEvalGradShareOneTrajectory pins that every evaluation mode
// follows the one trajectory a bare transient engine integrates from x0 on
// the evaluator's grid: at every point of a 20-point both-ways contour, on
// every example deck and built-in cell in BE and TRAP, h from Eval, EvalGrad
// and every lane of EvalBlock and EvalGradBlock, and both gradient
// components from EvalGrad and EvalGradBlock, equal the reference bit for
// bit. The sensitivity solves back-substitute against the last Newton LU, so
// adding them changes nothing about the state; and runs whose data ramps
// start after the evaluator's rest-stimulus checkpoint resume there instead
// of integrating the prefix, which must change nothing either. One
// evaluator runs the points scalar, Eval before EvalGrad, so a plain run
// saves the checkpoint; a second runs them in 4-point blocks, EvalGradBlock
// first, so a gradient block saves it, then EvalBlock, which runs Eval at
// each point in turn. Both must actually resume, and every
// run must account for its whole grid.
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
				scalar, err := NewEvaluator(cell, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := fromX0(t, scalar, m, pts)
				steps := scalar.Grid().Len() - 1

				differ := 0
				check := func(mode string, i int, h, ds, dh float64, grad bool) {
					t.Helper()
					w := want[i]
					if math.Float64bits(h) == math.Float64bits(w[0]) &&
						(!grad || math.Float64bits(ds) == math.Float64bits(w[1]) && math.Float64bits(dh) == math.Float64bits(w[2])) {
						return
					}
					if differ == 0 {
						t.Errorf("%s at (%g, %g): (%v, %v, %v), from x0 (%v, %v, %v)",
							mode, pts[i].TauS, pts[i].TauH, h, ds, dh, w[0], w[1], w[2])
					}
					differ++
				}
				accounts := func(ev *Evaluator, before transient.Stats, lanes int) {
					t.Helper()
					d := ev.Work
					got := (d.Steps - before.Steps) + (d.BlockSharedSteps - before.BlockSharedSteps) + (d.ResumedSteps - before.ResumedSteps)
					if got != lanes*steps {
						t.Fatalf("a %d-lane run accounts for %d lane-steps, want %d × %d", lanes, got, lanes, steps)
					}
				}

				for i, p := range pts {
					before := scalar.Work
					h, err := scalar.Eval(p.TauS, p.TauH)
					if err != nil {
						t.Fatalf("Eval(%g, %g): %v", p.TauS, p.TauH, err)
					}
					accounts(scalar, before, 1)
					check("Eval", i, h, 0, 0, false)
					before = scalar.Work
					hg, ds, dh, err := scalar.EvalGrad(p.TauS, p.TauH)
					if err != nil {
						t.Fatalf("EvalGrad(%g, %g): %v", p.TauS, p.TauH, err)
					}
					accounts(scalar, before, 1)
					check("EvalGrad", i, hg, ds, dh, true)
				}

				block, err := NewEvaluator(cell, cfg)
				if err != nil {
					t.Fatal(err)
				}
				const lanes = 4
				for lo := 0; lo < len(pts); lo += lanes {
					hi := min(lo+lanes, len(pts))
					tauS, tauH := make([]float64, 0, lanes), make([]float64, 0, lanes)
					for _, p := range pts[lo:hi] {
						tauS = append(tauS, p.TauS)
						tauH = append(tauH, p.TauH)
					}
					before := block.Work
					hs, dss, dhs, errs, err := block.EvalGradBlock(tauS, tauH)
					if err != nil {
						t.Fatal(err)
					}
					accounts(block, before, hi-lo)
					for j, lerr := range errs {
						if lerr != nil {
							t.Fatalf("EvalGradBlock lane %d: %v", j, lerr)
						}
						check("EvalGradBlock", lo+j, hs[j], dss[j], dhs[j], true)
					}
					before = block.Work
					hs, err = block.EvalBlock(tauS, tauH)
					if err != nil {
						t.Fatal(err)
					}
					accounts(block, before, hi-lo)
					for j, h := range hs {
						check("EvalBlock", lo+j, h, 0, 0, false)
					}
				}
				if differ > 0 {
					t.Errorf("%d evaluations of %d contour points differ from the run from x0", differ, len(pts))
				}
				if scalar.Work.ResumedSteps == 0 || block.Work.ResumedSteps == 0 {
					t.Errorf("resumed %d scalar and %d block lane-steps: no run resumed at the checkpoint",
						scalar.Work.ResumedSteps, block.Work.ResumedSteps)
				}
			})
		}
	}
}

// fromX0 integrates every point with a bare gradient-carrying engine from
// the evaluator's start state — the DC operating point at t = 0, solved as
// the evaluator solves it — on its grid, and returns h, ∂h/∂τs and ∂h/∂τh.
func fromX0(t *testing.T, ev *Evaluator, m transient.Method, pts []ContourPoint) [][3]float64 {
	t.Helper()
	inst := ev.Instance()
	cfg := EvalConfig{}.WithDefaults()
	inst.Data.SetSkews(cfg.CalSkew, cfg.CalSkew)
	x0, _, err := solver.DCOperatingPoint(inst.Circuit, 0, nil, solver.DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh engine: it runs nothing but these points from x0.
	eng := transient.NewEngine(inst.Circuit, transient.Options{Method: m, Skews: true})
	out := make([][3]float64, len(pts))
	for i, p := range pts {
		inst.Data.SetSkews(p.TauS, p.TauH)
		res, err := eng.Run(x0, ev.Grid())
		if err != nil {
			t.Fatalf("from x0 at (%g, %g): %v", p.TauS, p.TauH, err)
		}
		o := inst.Out
		out[i] = [3]float64{res.X[o] - ev.Calibration().R, res.Ms[o], res.Mh[o]}
	}
	return out
}
