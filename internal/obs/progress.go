package obs

import "time"

// Progress is one live progress report. The tracer reports per accepted
// contour point; the surface generator per completed grid row.
type Progress struct {
	// Phase identifies the reporting stage (a span name, e.g. "trace").
	Phase string
	// Done and Total count work items (contour points against the point
	// budget, grid samples against n²). Total may be 0 when unknown.
	Done, Total int
	// TauS, TauH is the most recent solved point (tracer only).
	TauS, TauH float64
	// CorrectorIters is the corrector effort at the latest point.
	CorrectorIters int
	// Elapsed is wall-clock since the run started; ETA extrapolates the
	// remaining work from the average pace so far (0 when unknown).
	Elapsed, ETA time.Duration
}

// Progress reports live progress. Reports are rate-limited to the interval
// configured with WithProgress; a report with Done ≥ Total > 0 always goes
// through so completion is never dropped. Also emits a progress event to the
// sinks at the same cadence.
func (r *Run) Progress(p Progress) {
	if r == nil || r.c.progressFn == nil {
		return
	}
	c := r.c
	now := c.since()
	final := p.Total > 0 && p.Done >= p.Total
	if !final {
		last := c.lastProg.Load()
		if now-time.Duration(last) < c.progressEvery {
			return
		}
		if !c.lastProg.CompareAndSwap(last, int64(now)) {
			return // another goroutine just reported
		}
	} else {
		c.lastProg.Store(int64(now))
	}
	p.Elapsed = now
	if p.ETA == 0 && p.Done > 0 && p.Total > p.Done {
		p.ETA = time.Duration(float64(now) / float64(p.Done) * float64(p.Total-p.Done))
	}
	var span uint64
	if r.span != nil {
		span = r.span.id
	}
	c.emit(&Event{
		Kind: KindProgress,
		Span: span, Phase: p.Phase,
		Done: p.Done, Total: p.Total,
		TauS: p.TauS, TauH: p.TauH, Iters: p.CorrectorIters,
		ETANs: int64(p.ETA),
	})
	c.progressFn(p)
}
