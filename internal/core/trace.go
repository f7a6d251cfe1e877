package core

import (
	"context"
	"errors"
	"fmt"

	"latchchar/internal/obs"
)

// Rect bounds the traced skew domain.
type Rect struct {
	MinS, MaxS float64
	MinH, MaxH float64
}

// Contains reports whether (s, h) lies inside the rectangle.
func (r Rect) Contains(s, h float64) bool {
	return s >= r.MinS && s <= r.MaxS && h >= r.MinH && h <= r.MaxH
}

// TraceStep records one predictor-corrector step for diagnostics and for
// reproducing Fig. 5.
type TraceStep struct {
	// From is the accepted point the Euler step departed from.
	From Point
	// PredS, PredH is the Euler predictor (paper eq. (26)).
	PredS, PredH float64
	// Alpha is the step length used.
	Alpha float64
	// Accepted is the corrected point (valid when OK).
	Accepted Point
	// OK reports whether the corrector converged at this step length.
	OK bool
}

// TraceOptions configure Euler-Newton contour tracing.
type TraceOptions struct {
	// Step is the Euler step length α along the tangent (default 5 ps).
	Step float64
	// MinStep and MaxStep bound the adaptive step length
	// (defaults Step/16 and 4·Step).
	MinStep, MaxStep float64
	// MaxPoints bounds the number of contour points per direction
	// (default 40, the paper's validation count).
	MaxPoints int
	// Bounds stops tracing when the curve leaves this rectangle. A zero
	// Rect disables the check.
	Bounds Rect
	// BothDirections traces backwards from the seed as well and returns the
	// concatenated curve.
	BothDirections bool
	// MPNR configures the corrector.
	MPNR MPNROptions
	// FastIters is the corrector iteration count at or below which the step
	// length is grown (default 3, matching the paper's "2–3 iterations").
	FastIters int
	// RecordSteps keeps the predictor/corrector history.
	RecordSteps bool
	// Block is the predictor lookahead width. For a BlockProblem each cycle
	// predicts max(Block, 1) equally spaced points along the tangent and
	// corrects them as one lockstep bundle, through EvalGradBlock when
	// Block > 1 (for circuit problems a single multi-lane block-transient),
	// accepting the converged in-order prefix; other problems predict one
	// point per cycle. One-lane cycles, and the one-lane α/2 retries of a
	// cycle that accepted nothing, evaluate through EvalGrad.
	Block int
	// Obs attaches observability: the trace runs inside a "trace" span with
	// one "step" span per predictor-corrector cycle (its retries included),
	// emits point events and live progress (points traced / budget, current
	// (τs, τh), corrector iterations, ETA). nil disables collection.
	Obs *obs.Run
}

func (o TraceOptions) withDefaults() TraceOptions {
	if o.Step <= 0 {
		o.Step = 5e-12
	}
	if o.MinStep <= 0 {
		o.MinStep = o.Step / 16
	}
	if o.MaxStep <= 0 {
		o.MaxStep = 4 * o.Step
	}
	if o.MaxPoints <= 0 {
		o.MaxPoints = 40
	}
	if o.FastIters <= 0 {
		o.FastIters = 3
	}
	return o
}

// Contour is a traced constant clock-to-Q curve.
type Contour struct {
	// Points are ordered along the curve. With BothDirections, the seed sits
	// between the two traced arms.
	Points []Point
	// Steps is the predictor/corrector history when RecordSteps is set.
	Steps []TraceStep
	// GradEvals counts gradient evaluations spent (seed correction
	// included).
	GradEvals int
	// Closed reports whether tracing terminated by returning to the seed.
	Closed bool
}

// SetupHoldPairs returns the contour as (τs, τh) pairs.
func (c *Contour) SetupHoldPairs() [][2]float64 {
	out := make([][2]float64, len(c.Points))
	for i, p := range c.Points {
		out[i] = [2]float64{p.TauS, p.TauH}
	}
	return out
}

// TraceContour runs the complete Euler-Newton procedure of Section IIIE:
// correct the seed onto the curve with MPNR, then repeatedly extrapolate
// along the tangent induced by the Jacobian (Euler predictor) and re-correct
// with MPNR, adapting the step length to corrector performance.
func TraceContour(p Problem, seedS, seedH float64, opts TraceOptions) (*Contour, error) {
	return TraceContourCtx(context.Background(), p, seedS, seedH, opts)
}

// TraceContourCtx is TraceContour with a cancellation context, checked at
// every predictor-corrector cycle and threaded into the problem's
// transients (CtxAttachable) so cancellation lands within one transient
// step. An interrupted trace returns the partial contour accepted so far —
// still a valid prefix (or two arms) of the constant clock-to-Q curve —
// together with a *CanceledError.
func TraceContourCtx(ctx context.Context, p Problem, seedS, seedH float64, opts TraceOptions) (*Contour, error) {
	o := opts.withDefaults()
	ct := &Contour{}

	sp := o.Obs.StartSpan(obs.SpanTrace)
	defer sp.End()
	o.Obs = sp // children (steps, correctors) nest under the trace span

	seedOpts := o.MPNR
	seedOpts.Obs = sp
	seedRes, err := SolveMPNRCtx(ctx, p, seedS, seedH, seedOpts)
	ct.GradEvals += seedRes.GradEvals
	if err != nil {
		if canceled(err) {
			return ct, &CanceledError{Op: "trace", At: seedRes.Point, Err: err}
		}
		return ct, fmt.Errorf("core: seed correction failed: %w", err)
	}
	seed := seedRes.Point
	sp.Point(seed.TauS, seed.TauH, seed.CorrectorIters)
	sp.Count(obs.CtrPoints, 1)

	// Assemble whatever both arms produced even when a direction fails or
	// is canceled: the error reports why tracing stopped, the points are
	// the partial contour.
	fwd, closed, errF := traceOneDirection(ctx, p, seed, +1, o, ct)
	ct.Closed = closed
	var bwd []Point
	var errB error
	if o.BothDirections && !closed && errF == nil {
		bwd, _, errB = traceOneDirection(ctx, p, seed, -1, o, ct)
	}
	// Assemble: reversed backward arm, seed, forward arm.
	pts := make([]Point, 0, len(bwd)+1+len(fwd))
	for i := len(bwd) - 1; i >= 0; i-- {
		pts = append(pts, bwd[i])
	}
	pts = append(pts, seed)
	pts = append(pts, fwd...)
	ct.Points = pts
	err = errF
	if err == nil {
		err = errB
	}
	if err != nil {
		var ce *CanceledError
		if errors.As(err, &ce) {
			ce.Points = len(ct.Points)
		}
		return ct, err
	}
	return ct, nil
}

// traceOneDirection walks the curve from seed with initial orientation
// sign·T(seed), one bundleAdvance cycle per advance: Block lanes through
// EvalGradBlock when p is a BlockProblem and Block > 1, one lane through
// EvalGrad otherwise. It returns the accepted points (excluding the seed)
// and whether the walk closed back onto the seed.
func traceOneDirection(ctx context.Context, p Problem, seed Point, sign float64, o TraceOptions, ct *Contour) ([]Point, bool, error) {
	var pts []Point
	cur := seed
	ts, th, err := Tangent(cur.DhdS, cur.DhdH)
	if err != nil {
		return nil, false, err
	}
	prevTS, prevTH := sign*ts, sign*th
	alpha := o.Step
	eval, lanes := oneLane(p), 1
	if bp, ok := p.(BlockProblem); ok && o.Block > 1 {
		eval, lanes = bp.EvalGradBlock, o.Block
	}

	for len(pts) < o.MaxPoints {
		if err := ctxErr(ctx, "trace", cur); err != nil {
			return pts, false, err
		}
		ts, th, err := Tangent(cur.DhdS, cur.DhdH)
		if err != nil {
			return pts, false, err
		}
		// Orientation continuity: never double back (Section IIID).
		if ts*prevTS+th*prevTH < 0 {
			ts, th = -ts, -th
		}
		accepted, next, stop, closed, err := bundleAdvance(ctx, p, eval, min(lanes, o.MaxPoints-len(pts)), seed, cur, ts, th, alpha, len(pts), o, ct)
		for _, ap := range accepted {
			pts = append(pts, ap)
			o.Obs.Progress(obs.Progress{
				Phase: obs.SpanTrace, Done: len(pts), Total: o.MaxPoints,
				TauS: ap.TauS, TauH: ap.TauH, CorrectorIters: ap.CorrectorIters,
			})
		}
		if err != nil || stop {
			return pts, closed, err
		}
		cur = pts[len(pts)-1]
		prevTS, prevTH = ts, th
		alpha = next
	}
	return pts, false, nil
}
