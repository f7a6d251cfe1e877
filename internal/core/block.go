package core

import (
	"context"
	"fmt"
	"math"

	"latchchar/internal/num"
	"latchchar/internal/obs"
)

// BlockProblem is a Problem that can evaluate a block of nearby points with
// one lockstep multi-lane computation (for the circuit problem: one
// block-transient, internal/stf.Evaluator.EvalGradBlock). errs reports
// per-lane failures without invalidating the other lanes; the final error is
// reserved for whole-block failures (cancellation, invalid input), which
// void every lane.
type BlockProblem interface {
	Problem
	EvalGradBlock(tauS, tauH []float64) (h, dhdS, dhdH []float64, errs []error, err error)
}

// SolveMPNRBlock is SolveMPNRBlockCtx with context.Background().
func SolveMPNRBlock(p BlockProblem, tauS0, tauH0 []float64, opts MPNROptions) ([]MPNRResult, []error, error) {
	return SolveMPNRBlockCtx(context.Background(), p, tauS0, tauH0, opts)
}

// SolveMPNRBlockCtx runs the Moore-Penrose corrector on a bundle of starting
// guesses as one lockstep block-transient computation; SolveMPNRCtx is its
// one-lane case. Per-lane outcomes land in the result and error slices
// (errs[i] is nil iff lane i converged); the final error is reserved for
// cancellation and invalid input.
func SolveMPNRBlockCtx(ctx context.Context, p BlockProblem, tauS0, tauH0 []float64, opts MPNROptions) ([]MPNRResult, []error, error) {
	if len(tauS0) != len(tauH0) {
		return nil, nil, fmt.Errorf("core: SolveMPNRBlock needs matched seed slices, got %d and %d", len(tauS0), len(tauH0))
	}
	return solveMPNRBlockCtx(ctx, p, p.EvalGradBlock, tauS0, tauH0, opts)
}

// gradBlock evaluates h and its gradient on a block of lanes, with the
// contract of BlockProblem.EvalGradBlock.
type gradBlock func(tauS, tauH []float64) (h, dhdS, dhdH []float64, errs []error, err error)

// oneLane evaluates a one-lane block with p.EvalGrad, so the scalar solvers
// run the lockstep corrector at the price of scalar evaluations. An
// evaluation error is returned as the whole-block error, which voids the
// lane without counting the failed evaluation.
func oneLane(p Problem) gradBlock {
	var h, gs, gh [1]float64
	return func(tauS, tauH []float64) ([]float64, []float64, []float64, []error, error) {
		var err error
		h[0], gs[0], gh[0], err = p.EvalGrad(tauS[0], tauH[0])
		return h[:], gs[:], gh[:], nil, err
	}
}

// solveMPNRBlockCtx runs the Moore-Penrose corrector on a bundle of starting
// guesses in lockstep: each sweep evaluates all still-active lanes as one
// block through eval, applies the MPNR update per lane, and drops lanes as
// they converge or fail. Per-lane outcomes land in results/errsOut
// (errsOut[i] is nil iff lane i converged); the returned error is reserved
// for cancellation. The whole bundle runs inside one "corrector" span,
// observing one iteration count per lane, with p re-parented onto it and
// attached to ctx.
func solveMPNRBlockCtx(ctx context.Context, p Problem, eval gradBlock, tauS0, tauH0 []float64, opts MPNROptions) (results []MPNRResult, errsOut []error, err error) {
	o := opts.withDefaults()
	B := len(tauS0)
	results = make([]MPNRResult, B)
	errsOut = make([]error, B)
	sp := o.Obs.StartSpan(obs.SpanCorrector)
	detachObs := attachObs(p, sp, o.Obs)
	detachCtx := attachCtx(ctx, p)
	defer func() {
		detachCtx()
		detachObs()
		for i := range results {
			sp.Observe(obs.HistCorrectorIters, results[i].Point.CorrectorIters)
		}
		sp.End()
	}()
	tauS := append([]float64(nil), tauS0...)
	tauH := append([]float64(nil), tauH0...)
	active := make([]int, B)
	for i := range active {
		active[i] = i
	}
	rings := make([]iterRing, B)
	bs := make([]float64, 0, B)
	bh := make([]float64, 0, B)
	for iter := 1; iter <= o.MaxIter && len(active) > 0; iter++ {
		if cerr := ctxErr(ctx, "mpnr", results[active[0]].Point); cerr != nil {
			return results, errsOut, cerr
		}
		bs, bh = bs[:0], bh[:0]
		for _, i := range active {
			bs = append(bs, tauS[i])
			bh = append(bh, tauH[i])
		}
		h, gs, gh, evalErrs, berr := eval(bs, bh)
		if berr != nil {
			if canceled(berr) {
				return results, errsOut, &CanceledError{Op: "mpnr", At: results[active[0]].Point, Err: berr}
			}
			for _, i := range active {
				errsOut[i] = &ConvergenceError{Op: "mpnr", At: results[i].Point, Iterates: rings[i].slice(), Err: berr}
			}
			return results, errsOut, nil
		}
		next := active[:0]
		for ai, i := range active {
			results[i].GradEvals++
			if evalErrs != nil && evalErrs[ai] != nil {
				errsOut[i] = &ConvergenceError{Op: "mpnr", At: results[i].Point, Iterates: rings[i].slice(), Err: evalErrs[ai]}
				continue
			}
			hi, gsi, ghi := h[ai], gs[ai], gh[ai]
			if o.Record {
				results[i].Trajectory = append(results[i].Trajectory,
					Point{TauS: tauS[i], TauH: tauH[i], H: hi, DhdS: gsi, DhdH: ghi, CorrectorIters: iter - 1})
			}
			norm2 := gsi*gsi + ghi*ghi
			results[i].Point = Point{TauS: tauS[i], TauH: tauH[i], H: hi, DhdS: gsi, DhdH: ghi, CorrectorIters: iter}
			rings[i].push(results[i].Point)
			if math.Abs(hi) <= o.HTol {
				results[i].Converged = true
				continue
			}
			if norm2 == 0 || !num.IsFinite(norm2) {
				errsOut[i] = &ConvergenceError{Op: "mpnr", At: results[i].Point, Iterates: rings[i].slice(), Err: ErrDegenerateGradient}
				continue
			}
			// Moore-Penrose step (paper eqs. (23)–(24)).
			dS := hi * gsi / norm2
			dH := hi * ghi / norm2
			stepLen := math.Hypot(dS, dH)
			if o.MaxStep > 0 && stepLen > o.MaxStep {
				scale := o.MaxStep / stepLen
				dS *= scale
				dH *= scale
				stepLen = o.MaxStep
			}
			tauS[i] -= dS
			tauH[i] -= dH
			if stepLen <= o.TauTol {
				// The iterate stopped moving; declare convergence at the new
				// τ with the latest available residual information.
				results[i].Point.TauS, results[i].Point.TauH = tauS[i], tauH[i]
				results[i].Converged = true
				continue
			}
			if iter == o.MaxIter {
				errsOut[i] = &ConvergenceError{Op: "mpnr", At: results[i].Point, Iterates: rings[i].slice(), Err: ErrNoConvergence}
				continue
			}
			next = append(next, i)
		}
		active = next
	}
	return results, errsOut, nil
}

// bundleAdvance is the trace loop's one predictor-corrector cycle
// (Section IIIE): predict lanes equally spaced lookahead points along the
// current tangent (cur + i·α·T, i = 1..lanes), correct them as one lockstep
// bundle through eval, and accept the in-order prefix of lanes that
// converged, stayed in bounds and did not close the curve. Every lane after
// the first must also advance along the tangent past its predecessor
// (correctors can pull lookahead points backwards onto already-traced
// curve). The first non-accepting lane truncates the prefix — contour order
// is sacred. A cycle that accepts nothing halves α and retries one lane
// through p.EvalGrad, until a lane converges or α falls below MinStep. The
// cycle, retries included, runs inside one "step" span.
//
// Returns the accepted points, the step length to continue with (α grown
// by 1.4 when every lane converged within FastIters), whether tracing
// should stop (bounds exit or closure, with closed distinguishing the two)
// and the error that ended the trace: a *CanceledError, or a
// *ConvergenceError carrying the step lengths tried. Each point is tested
// for closure against the step length the cycle would continue with if it
// ended there.
func bundleAdvance(ctx context.Context, p Problem, eval gradBlock, lanes int, seed, cur Point, ts, th, alpha float64, nPts int, o TraceOptions, ct *Contour) (accepted []Point, next float64, stop, closed bool, err error) {
	stepSpan := o.Obs.StartSpan(obs.SpanStep)
	defer stepSpan.End()
	stepOpts := o.MPNR
	stepOpts.Obs = stepSpan
	var tried []float64
	zero := Rect{}
	for {
		predS := make([]float64, lanes)
		predH := make([]float64, lanes)
		for i := range predS {
			predS[i] = cur.TauS + float64(i+1)*alpha*ts
			predH[i] = cur.TauH + float64(i+1)*alpha*th
		}
		results, errs, err := solveMPNRBlockCtx(ctx, p, eval, predS, predH, stepOpts)
		for i := range results {
			ct.GradEvals += results[i].GradEvals
		}
		if err != nil {
			return nil, alpha, false, false, &CanceledError{Op: "trace", At: cur, Points: nPts, Err: err}
		}
		next = alpha
		prevProj, maxIters := 0.0, 0
		for i, res := range results {
			pt := res.Point
			ok := errs[i] == nil
			proj := (pt.TauS-cur.TauS)*ts + (pt.TauH-cur.TauH)*th
			if ok && i > 0 {
				// Monotone-advance guard. Lane 0 is exempt: once converged
				// it is accepted, as a one-lane cycle accepts it.
				ok = proj > prevProj
			}
			prevProj = proj
			if o.RecordSteps {
				step := TraceStep{From: cur, PredS: predS[i], PredH: predH[i], Alpha: alpha, OK: ok}
				if ok {
					step.Accepted = pt
				}
				ct.Steps = append(ct.Steps, step)
			}
			if !ok {
				break
			}
			if o.Bounds != zero && !o.Bounds.Contains(pt.TauS, pt.TauH) {
				return accepted, next, true, false, nil
			}
			maxIters = max(maxIters, pt.CorrectorIters)
			if i == lanes-1 && maxIters <= o.FastIters && alpha < o.MaxStep {
				next = math.Min(o.MaxStep, alpha*1.4)
			}
			if nPts+len(accepted) >= 3 && math.Hypot(pt.TauS-seed.TauS, pt.TauH-seed.TauH) < next/2 {
				return accepted, next, true, true, nil
			}
			stepSpan.Point(pt.TauS, pt.TauH, pt.CorrectorIters)
			stepSpan.Count(obs.CtrPoints, 1)
			accepted = append(accepted, pt)
		}
		if len(accepted) > 0 {
			return accepted, next, false, false, nil
		}
		// Lane 0 did not converge: shrink the step and retry one lane.
		stepSpan.Count(obs.CtrStepRejects, 1)
		tried = append(tried, alpha)
		alpha /= 2
		if alpha < o.MinStep {
			return nil, alpha, false, false, &ConvergenceError{Op: "trace", At: cur, StepLens: tried, Err: errs[0]}
		}
		eval, lanes = oneLane(p), 1
	}
}
