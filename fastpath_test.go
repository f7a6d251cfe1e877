package latchchar

import (
	"math"
	"testing"
)

// TestFastPathAccuracyGate holds a characterization requested through the
// deprecated DefaultFastPath() to the exact path: the chord/bypass fast path
// it selected is gone (DESIGN §10), so the request must reproduce the exact
// contour bit for bit at the same simulation cost.
func TestFastPathAccuracyGate(t *testing.T) {
	for _, name := range []string{"tspc", "c2mos"} {
		t.Run(name, func(t *testing.T) {
			cell, err := CellByName(name)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Points: 10, BothDirections: true}
			exact, err := Characterize(cell, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Eval = DefaultFastPath()
			fast, err := Characterize(cell, opts)
			if err != nil {
				t.Fatal(err)
			}
			if fast.PlainSims != exact.PlainSims || fast.GradSims != exact.GradSims {
				t.Errorf("fast-path request spent %d+%d sims, exact %d+%d",
					fast.PlainSims, fast.GradSims, exact.PlainSims, exact.GradSims)
			}
			ep, fp := exact.Contour.Points, fast.Contour.Points
			if len(fp) != len(ep) {
				t.Fatalf("fast-path request traced %d points, exact %d", len(fp), len(ep))
			}
			bits := math.Float64bits
			for i := range ep {
				e, f := ep[i], fp[i]
				if bits(f.TauS) != bits(e.TauS) || bits(f.TauH) != bits(e.TauH) || bits(f.H) != bits(e.H) {
					t.Errorf("point %d: fast-path request (%v, %v, h %v), exact (%v, %v, h %v)",
						i, f.TauS, f.TauH, f.H, e.TauS, e.TauH, e.H)
				}
			}
		})
	}
}
