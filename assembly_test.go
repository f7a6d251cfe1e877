package latchchar

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"latchchar/internal/circuit"
	"latchchar/internal/num"
)

// assemblyCells are whole circuits whose C entries are shared between
// devices: the built-in cells at the default process, tspc with the
// state-dependent gate capacitance (constant junction caps and a variable
// gate cap on the same entries), and the example decks.
func assemblyCells(t *testing.T) []*Cell {
	t.Helper()
	var cells []*Cell
	for _, name := range []string{"tspc", "c2mos", "tgate"} {
		cell, err := CellByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, cell)
	}
	nl := DefaultProcess()
	nl.NMOS.NLGate = true
	nl.PMOS.NLGate = true
	tspcNL := TSPCCell(nl, DefaultTiming())
	tspcNL.Name = "tspc-nlgate"
	cells = append(cells, tspcNL)
	for _, name := range []string{"c2mos.cir", "dynamic_latch.cir", "tspc.cir"} {
		src, err := os.ReadFile(filepath.Join("examples", "netlists", name))
		if err != nil {
			t.Fatal(err)
		}
		d, err := ParseNetlistString(string(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cells = append(cells, d.Cell(name))
	}
	return cells
}

// TestWholeCellAssembly checks the assembled charge Jacobian of whole
// circuits. At seeded random states one reused Eval must give C equal to
// the central difference of q, and equal bit for bit to a fresh Eval's C at
// the same state — a C template that carried values from one evaluation
// into the next would fail the second check.
func TestWholeCellAssembly(t *testing.T) {
	const (
		states = 5
		h      = 1e-6
	)
	for k, cell := range assemblyCells(t) {
		t.Run(cell.Name, func(t *testing.T) {
			inst, err := cell.Build()
			if err != nil {
				t.Fatal(err)
			}
			c := inst.Circuit
			n := c.N()
			ev, evFD := c.NewEval(), c.NewEval()
			rng := rand.New(rand.NewSource(int64(k + 1)))
			for trial := 0; trial < states; trial++ {
				x := make([]float64, n)
				for i := range x {
					x[i] = rng.Float64()*5 - 1 // −1 .. 4 V, current unknowns too
				}
				tt := rng.Float64() * 1e-9
				ev.At(x, tt)
				fresh := c.NewEval()
				fresh.At(x, tt)
				for i, v := range ev.C.Val {
					if math.Float64bits(v) != math.Float64bits(fresh.C.Val[i]) {
						t.Fatalf("trial %d: reused Eval C.Val[%d] = %v, fresh Eval %v", trial, i, v, fresh.C.Val[i])
					}
				}
				for j := 0; j < n; j++ {
					xs := append([]float64(nil), x...)
					xs[j] = x[j] + h
					evFD.At(xs, tt)
					qp := append([]float64(nil), evFD.Q...)
					xs[j] = x[j] - h
					evFD.At(xs, tt)
					for i := 0; i < n; i++ {
						cfd := (qp[i] - evFD.Q[i]) / (2 * h)
						if got := ev.C.At(i, j); !num.ApproxEqual(cfd, got, 2e-3, 1e-16) {
							t.Errorf("trial %d: C(%s, %s) fd=%v assembled=%v", trial,
								c.NodeName(circuit.UnknownID(i)), c.NodeName(circuit.UnknownID(j)), cfd, got)
						}
					}
				}
			}
		})
	}
}
