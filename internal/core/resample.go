package core

import (
	"context"
	"fmt"
	"math"

	"latchchar/internal/obs"
)

// ResampleContour redistributes a traced contour into exactly n points
// evenly spaced in arc length, polishing each interpolated point back onto
// h = 0 with the MPNR corrector. Library table generation wants contours on
// a predictable grid; the tracer's adaptive steps do not provide one.
//
// Since every start point lies (interpolated) on the curve, the corrector
// typically needs a single iteration per point, so the cost is ≈n gradient
// evaluations.
func ResampleContour(p Problem, c *Contour, n int, opts MPNROptions) (*Contour, error) {
	return ResampleContourCtx(context.Background(), p, c, n, opts)
}

// resampleSeeds interpolates a traced contour onto n arc-length-uniform
// start points.
func resampleSeeds(c *Contour, n int) (seedS, seedH []float64, err error) {
	if n < 2 {
		return nil, nil, fmt.Errorf("core: ResampleContour needs n ≥ 2, got %d", n)
	}
	if len(c.Points) < 2 {
		return nil, nil, fmt.Errorf("core: ResampleContour needs a traced contour with ≥ 2 points")
	}
	// Cumulative arc length.
	cum := make([]float64, len(c.Points))
	for i := 1; i < len(c.Points); i++ {
		d := math.Hypot(c.Points[i].TauS-c.Points[i-1].TauS, c.Points[i].TauH-c.Points[i-1].TauH)
		cum[i] = cum[i-1] + d
	}
	total := cum[len(cum)-1]
	if total == 0 {
		return nil, nil, fmt.Errorf("core: contour has zero arc length")
	}
	seedS = make([]float64, n)
	seedH = make([]float64, n)
	seg := 1
	for k := 0; k < n; k++ {
		target := total * float64(k) / float64(n-1)
		for seg < len(cum)-1 && cum[seg] < target {
			seg++
		}
		a, b := c.Points[seg-1], c.Points[seg]
		var u float64
		if cum[seg] > cum[seg-1] {
			u = (target - cum[seg-1]) / (cum[seg] - cum[seg-1])
		}
		seedS[k] = a.TauS + u*(b.TauS-a.TauS)
		seedH[k] = a.TauH + u*(b.TauH-a.TauH)
	}
	return seedS, seedH, nil
}

// ResampleContourCtx is ResampleContour with a cancellation context; an
// interrupted resample returns the points polished so far together with a
// *CanceledError. It is ResampleContourBlockCtx with chunks of one,
// evaluated with p.EvalGrad.
func ResampleContourCtx(ctx context.Context, p Problem, c *Contour, n int, opts MPNROptions) (*Contour, error) {
	return resample(ctx, p, oneLane(p), c, n, 1, opts)
}

// ResampleContourBlock is ResampleContourBlockCtx with context.Background().
func ResampleContourBlock(p BlockProblem, c *Contour, n, block int, opts MPNROptions) (*Contour, error) {
	return ResampleContourBlockCtx(context.Background(), p, c, n, block, opts)
}

// ResampleContourBlockCtx is ResampleContourCtx with the per-point MPNR
// polish batched through the block-transient kernel: the n interpolated
// seeds are corrected in chunks of up to block lockstep lanes, sharing
// Jacobian factorizations and batched device evaluation exactly as the
// block tracer does. This is the warm-start kernel of the variance-aware
// Monte-Carlo flow — a process sample's whole probe contour is one or two
// block solves seeded from the nominal contour. block < 2 runs chunks of
// one lane.
func ResampleContourBlockCtx(ctx context.Context, p BlockProblem, c *Contour, n, block int, opts MPNROptions) (*Contour, error) {
	return resample(ctx, p, p.EvalGradBlock, c, n, max(block, 1), opts)
}

// resample polishes the n interpolated seeds of c through the lockstep
// corrector in chunks of up to block lanes evaluated by eval.
func resample(ctx context.Context, p Problem, eval gradBlock, c *Contour, n, block int, opts MPNROptions) (*Contour, error) {
	seedS, seedH, err := resampleSeeds(c, n)
	if err != nil {
		return nil, err
	}
	sp := opts.Obs.StartSpan(obs.SpanResample)
	defer sp.End()
	opts.Obs = sp // correctors nest under the resample span
	out := &Contour{Closed: c.Closed, Points: make([]Point, 0, n)}
	for lo := 0; lo < n; lo += block {
		hi := lo + block
		if hi > n {
			hi = n
		}
		results, errs, berr := solveMPNRBlockCtx(ctx, p, eval, seedS[lo:hi], seedH[lo:hi], opts)
		for i := range results {
			out.GradEvals += results[i].GradEvals
		}
		if berr != nil {
			at := results[0].Point
			if canceled(berr) {
				return out, &CanceledError{Op: "resample", At: at, Points: len(out.Points), Err: berr}
			}
			return out, fmt.Errorf("core: resample block at point %d: %w", lo, berr)
		}
		for i := range results {
			if errs[i] != nil {
				return out, fmt.Errorf("core: resample point %d at (%.4g, %.4g): %w", lo+i, seedS[lo+i], seedH[lo+i], errs[i])
			}
			if !results[i].Converged {
				return out, fmt.Errorf("core: resample point %d at (%.4g, %.4g): %w", lo+i, seedS[lo+i], seedH[lo+i], ErrNoConvergence)
			}
			out.Points = append(out.Points, results[i].Point)
		}
	}
	return out, nil
}
