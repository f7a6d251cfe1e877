// Package transient implements the time-domain simulation engine: fixed-grid
// Backward-Euler and Trapezoidal integration of the MNA equations with
// per-step Newton solves, plus forward propagation of the setup/hold skew
// sensitivities mₛ = ∂x/∂τs and m_h = ∂x/∂τh (paper eqs. (9)–(13)), reusing
// each converged step's LU factorization so the gradient of the
// state-transition function costs two extra triangular solves per step.
//
// The time grid never depends on (τs, τh); this keeps the discretized
// state-transition function smooth in the skews, which the Newton methods
// built on top of it require.
package transient

import (
	"fmt"
	"math"
)

// Grid is a strictly increasing sequence of time points.
type Grid struct {
	points []float64
}

// Points returns the grid's time points. The slice must not be modified.
func (g Grid) Points() []float64 { return g.points }

// Len returns the number of time points.
func (g Grid) Len() int { return len(g.points) }

// Start and End return the first and last time points.
func (g Grid) Start() float64 { return g.points[0] }

// End returns the last time point.
func (g Grid) End() float64 { return g.points[len(g.points)-1] }

// UniformGrid returns a grid of n equal steps (n+1 points) from t0 to t1.
func UniformGrid(t0, t1 float64, n int) (Grid, error) {
	if n < 1 {
		return Grid{}, fmt.Errorf("transient: UniformGrid needs at least one step")
	}
	if t1 <= t0 {
		return Grid{}, fmt.Errorf("transient: UniformGrid needs t1 > t0")
	}
	pts := make([]float64, n+1)
	dt := (t1 - t0) / float64(n)
	for i := range pts {
		pts[i] = t0 + float64(i)*dt
	}
	pts[n] = t1
	return Grid{points: pts}, nil
}

// TwoPhaseGrid returns a grid using coarse steps from t0 up to tFine and
// fine steps from there to t1. tFine is snapped onto the coarse lattice so
// both phases remain uniform. This is the default schedule for latch
// characterization: coarse through the quiescent prefix, fine across the
// data/clock-edge window. The grid depends only on the window boundaries,
// never on the skews.
func TwoPhaseGrid(t0, tFine, t1, coarse, fine float64) (Grid, error) {
	switch {
	case !(t0 < tFine && tFine < t1):
		return Grid{}, fmt.Errorf("transient: TwoPhaseGrid needs t0 < tFine < t1 (got %g, %g, %g)", t0, tFine, t1)
	case coarse <= 0 || fine <= 0:
		return Grid{}, fmt.Errorf("transient: TwoPhaseGrid steps must be positive")
	case fine > coarse:
		return Grid{}, fmt.Errorf("transient: fine step %g exceeds coarse step %g", fine, coarse)
	}
	nc := int(math.Ceil((tFine - t0) / coarse))
	nf := int(math.Ceil((t1 - tFine) / fine))
	pts := make([]float64, 0, nc+1+nf)
	dtc := (tFine - t0) / float64(nc)
	for i := 0; i <= nc; i++ {
		pts = append(pts, t0+float64(i)*dtc)
	}
	pts[len(pts)-1] = tFine
	dtf := (t1 - tFine) / float64(nf)
	for i := 1; i <= nf; i++ {
		pts = append(pts, tFine+float64(i)*dtf)
	}
	pts[len(pts)-1] = t1
	return Grid{points: pts}, nil
}

// GridFromPoints wraps an explicit strictly increasing point list.
func GridFromPoints(pts []float64) (Grid, error) {
	if len(pts) < 2 {
		return Grid{}, fmt.Errorf("transient: grid needs at least two points")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i] <= pts[i-1] {
			return Grid{}, fmt.Errorf("transient: grid not strictly increasing at %d", i)
		}
	}
	return Grid{points: append([]float64(nil), pts...)}, nil
}
