package latchchar

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"latchchar/internal/circuit"
	"latchchar/internal/num"
	"latchchar/internal/solver"
	"latchchar/internal/surface"
	"latchchar/internal/transient"
)

// TestCrossingMeasurementsMatchTheFullWindow holds the two measurements that
// stop their transient at the output crossing to the full-window runs they
// replace, bit for bit, on every example deck and built-in cell, at the
// default process and three Monte-Carlo corners, in BE and TRAP:
//
//   - every Calibration field equals what a bare engine integrating the
//     whole calibration grid, plus num.CrossingTime on its output, gives,
//     and the calibration ran exactly the steps up to that crossing;
//   - ClockToQ on a 6×6 skew grid with latched and failing points equals
//     num.CrossingTime on OutputUntil's waveform to PostWindow past the
//     edge, in the delay bits and in ok.
func TestCrossingMeasurementsMatchTheFullWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("transient simulations in -short mode")
	}
	type subject struct {
		name string
		cell *Cell
	}
	var subjects []subject
	decks, err := filepath.Glob(filepath.Join("examples", "netlists", "*.cir"))
	if err != nil || len(decks) == 0 {
		t.Fatalf("no example decks found: %v", err)
	}
	for _, path := range decks {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		deck, err := ParseNetlistString(string(src))
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(path)
		subjects = append(subjects, subject{name, deck.Cell(name)})
	}
	draws, err := MCDraws(DefaultProcess(), MCOptions{Samples: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tspc", "c2mos", "tgate"} {
		mk, err := CellMakerByName(name, DefaultTiming())
		if err != nil {
			t.Fatal(err)
		}
		subjects = append(subjects, subject{name + "/nominal", mk(DefaultProcess())})
		for i, p := range draws {
			subjects = append(subjects, subject{fmt.Sprintf("%s/draw%d", name, i), mk(p)})
		}
	}

	skews := surface.Linspace(10e-12, 760e-12, 6)
	post := EvalConfig{}.WithDefaults().PostWindow
	for _, s := range subjects {
		for _, m := range []transient.Method{BE, TRAP} {
			t.Run(s.name+"/"+m.String(), func(t *testing.T) {
				t.Parallel()
				ev, err := NewEvaluator(s.cell, EvalConfig{Method: m})
				if err != nil {
					t.Fatal(err)
				}
				cal := ev.Calibration()
				want, steps := fullWindowCalibration(t, ev, m)
				for _, f := range []struct {
					name      string
					got, want float64
				}{
					{"TC", cal.TC, want.TC},
					{"CharDelay", cal.CharDelay, want.CharDelay},
					{"Tf", cal.Tf, want.Tf},
					{"R", cal.R, want.R},
				} {
					if math.Float64bits(f.got) != math.Float64bits(f.want) {
						t.Errorf("Calibration.%s = %v, the full window gives %v", f.name, f.got, f.want)
					}
				}
				if cal.Rising != want.Rising {
					t.Errorf("Calibration.Rising = %v, want %v", cal.Rising, want.Rising)
				}
				if ev.Work.Steps != steps {
					t.Errorf("calibration ran %d steps, the crossing completes at step %d", ev.Work.Steps, steps)
				}

				inst := ev.Instance()
				edge := inst.Edge50
				dir := -1
				if cal.Rising {
					dir = +1
				}
				latched, failed := 0, 0
				for _, tauS := range skews {
					for _, tauH := range skews {
						d, ok, err := ev.ClockToQ(tauS, tauH)
						if err != nil {
							t.Fatalf("ClockToQ(%g, %g): %v", tauS, tauH, err)
						}
						times, out, err := ev.OutputUntil(tauS, tauH, edge+post)
						if err != nil {
							t.Fatal(err)
						}
						tc, wantOK := num.CrossingTime(times, out, cal.R, dir, edge)
						wantD := 0.0
						if wantOK {
							wantD = tc - edge
							latched++
						} else {
							failed++
						}
						if ok != wantOK || math.Float64bits(d) != math.Float64bits(wantD) {
							t.Errorf("ClockToQ(%g, %g) = %v, %v; the full window gives %v, %v", tauS, tauH, d, ok, wantD, wantOK)
						}
					}
				}
				if latched == 0 || failed == 0 {
					t.Errorf("the skew grid latched at %d and failed at %d points, want both", latched, failed)
				}
			})
		}
	}
}

// fullWindowCalibration measures the calibration with a bare engine that
// integrates the whole calibration grid from the evaluator's start state and
// records the output, then applies num.CrossingTime. It also returns the
// number of steps up to the one that completes that crossing: the shortest
// recorded prefix on which CrossingTime finds it.
func fullWindowCalibration(t *testing.T, ev *Evaluator, m transient.Method) (Calibration, int) {
	t.Helper()
	inst := ev.Instance()
	cfg := EvalConfig{}.WithDefaults()
	inst.Data.SetSkews(cfg.CalSkew, cfg.CalSkew)
	x0, _, err := solver.DCOperatingPoint(inst.Circuit, 0, nil, solver.DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := transient.TwoPhaseGrid(0, inst.Data.SupportStart(cfg.CalSkew)-cfg.FineMargin, inst.Edge50+cfg.PostWindow, cfg.CoarseStep, cfg.FineStep)
	if err != nil {
		t.Fatal(err)
	}
	res, err := transient.NewEngine(inst.Circuit, transient.Options{Method: m, Probes: []circuit.UnknownID{inst.Out}}).Run(x0, grid)
	if err != nil {
		t.Fatal(err)
	}
	r, dir := inst.CrossFrac*inst.VDD, +1
	if !inst.OutputRising {
		r, dir = (1-inst.CrossFrac)*inst.VDD, -1
	}
	ts, vs := res.Times, res.Probes[0]
	tc, ok := num.CrossingTime(ts, vs, r, dir, inst.Edge50)
	if !ok {
		t.Fatal("the full calibration window never crosses")
	}
	steps := 1
	for {
		if _, ok := num.CrossingTime(ts[:steps+1], vs[:steps+1], r, dir, inst.Edge50); ok {
			break
		}
		steps++
	}
	delay := tc - inst.Edge50
	return Calibration{
		TC:        tc,
		CharDelay: delay,
		Tf:        inst.Edge50 + (1+cfg.Degrade)*delay,
		R:         r,
		Rising:    inst.OutputRising,
	}, steps
}
