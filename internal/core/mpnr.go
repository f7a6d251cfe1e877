package core

import (
	"context"
	"math"

	"latchchar/internal/num"
	"latchchar/internal/obs"
)

// MPNROptions configure the Moore-Penrose Newton-Raphson corrector.
type MPNROptions struct {
	// MaxIter bounds the Newton iterations (default 12).
	MaxIter int
	// HTol is the residual tolerance in output units (volts for circuit
	// problems; default 1e-6).
	HTol float64
	// TauTol is the step-size tolerance in seconds: the iteration is
	// converged when ‖Δτ‖ falls below it (default 1e-16, i.e. well past the
	// paper's five significant digits on ~100 ps skews).
	TauTol float64
	// MaxStep clamps ‖Δτ‖ per iteration to keep iterates inside the Newton
	// convergence region (default 50 ps; 0 disables clamping).
	MaxStep float64
	// Record, when set, stores the iterate trajectory in the result
	// (used to reproduce Fig. 4).
	Record bool
	// Obs attaches observability: the solve runs inside a "corrector" span
	// and reports its iteration count to the corrector histogram. nil
	// disables collection.
	Obs *obs.Run
}

func (o MPNROptions) withDefaults() MPNROptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 12
	}
	if o.HTol <= 0 {
		o.HTol = 1e-6
	}
	if o.TauTol <= 0 {
		o.TauTol = 1e-16
	}
	if o.MaxStep < 0 {
		o.MaxStep = 0
	} else if o.MaxStep == 0 {
		o.MaxStep = 50e-12
	}
	return o
}

// MPNRResult is the outcome of a Moore-Penrose Newton solve.
type MPNRResult struct {
	Point
	Converged bool
	// Trajectory holds the iterates (including the start) when
	// MPNROptions.Record is set.
	Trajectory []Point
	// GradEvals counts gradient evaluations (= transient simulations with
	// sensitivities for the circuit problem).
	GradEvals int
}

// SolveMPNR runs the Moore-Penrose pseudo-inverse Newton-Raphson iteration
// of Section IIIC from the initial guess (τs0, τh0):
//
//	τ ← τ − h(τ) · H(τ)⁺,   H⁺ = Hᵀ(H·Hᵀ)⁻¹ = [gs, gh]ᵀ / (gs² + gh²)
//
// Under the usual regularity conditions the iteration converges to the
// point of the h = 0 curve nearest the initial guess.
func SolveMPNR(p Problem, tauS0, tauH0 float64, opts MPNROptions) (MPNRResult, error) {
	return SolveMPNRCtx(context.Background(), p, tauS0, tauH0, opts)
}

// SolveMPNRCtx is SolveMPNR with a cancellation context: ctx is checked
// before every gradient evaluation and threaded into the problem's
// transients (CtxAttachable), so a canceled deadline stops the solve within
// one transient step. Interrupted solves return a *CanceledError. It is the
// one-lane case of SolveMPNRBlockCtx, evaluated with p.EvalGrad.
func SolveMPNRCtx(ctx context.Context, p Problem, tauS0, tauH0 float64, opts MPNROptions) (MPNRResult, error) {
	results, errs, err := solveMPNRBlockCtx(ctx, p, oneLane(p), []float64{tauS0}, []float64{tauH0}, opts)
	if err == nil {
		err = errs[0]
	}
	return results[0], err
}

// Tangent returns the unit tangent vector induced by the Jacobian
// H = [gs, gh] (paper eq. (16)): T = (−gh, gs)/‖H‖. The returned vector is
// orthogonal to ∇h, i.e. tangent to the level curve h = const.
func Tangent(gs, gh float64) (ts, th float64, err error) {
	n := math.Hypot(gs, gh)
	if n == 0 || !num.IsFinite(n) {
		return 0, 0, ErrDegenerateGradient
	}
	return -gh / n, gs / n, nil
}
