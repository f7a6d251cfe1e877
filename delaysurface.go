package latchchar

import (
	"context"
	"fmt"
	"time"

	"latchchar/internal/obs"
	"latchchar/internal/stf"
	"latchchar/internal/surface"
)

// The paper's Section I describes two brute-force formulations. The primary
// one measures the clock-to-Q *delay* for every trial skew pair — "a
// clock-to-Q delay surface ... followed by extraction of a contour ... that
// contains all points that result in a prescribed increase (e.g., 10%)".
// BruteForce implements the alternative (output level at tf); this file
// implements the delay-surface variant. It is the more expensive baseline:
// every sample needs an extended transient that runs past the crossing
// instead of stopping at tf.

// DelaySurfaceResult is the outcome of BruteForceDelay.
type DelaySurfaceResult struct {
	// Surface holds measured clock-to-Q delays (seconds). Samples that
	// failed to latch carry FailDelay.
	Surface *Surface
	// FailDelay is the sentinel stored for non-latching samples: 3× the
	// characteristic delay, comfortably above any contour level of
	// interest.
	FailDelay float64
	// Contour is the iso-delay extraction at (1+degrade)·characteristic.
	Contour []Polyline
	// Calibration is the shared characteristic timing.
	Calibration Calibration
	// Sims is the number of grid simulations (N²).
	Sims int
	// Elapsed is the wall-clock generation time.
	Elapsed time.Duration
}

// BruteForceDelay is BruteForceDelayCtx with context.Background().
func BruteForceDelay(cell *Cell, opts SurfaceOptions) (*DelaySurfaceResult, error) {
	return BruteForceDelayCtx(context.Background(), cell, opts)
}

// BruteForceDelayCtx generates the paper's primary prior-practice baseline:
// an N×N clock-to-Q delay surface with the 10%-degradation iso-contour
// extracted by marching squares, running the grid on the shared
// DefaultEngine pool with cancellation.
func BruteForceDelayCtx(ctx context.Context, cell *Cell, opts SurfaceOptions) (*DelaySurfaceResult, error) {
	return DefaultEngine().BruteForceDelay(ctx, cell, opts)
}

// BruteForceDelay runs the delay-surface baseline on this engine's pool; see
// Engine.BruteForce.
func (e *Engine) BruteForceDelay(ctx context.Context, cell *Cell, opts SurfaceOptions) (*DelaySurfaceResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.N <= 0 {
		opts.N = 40
	}
	if (opts.Domain == Rect{}) {
		opts.Domain = Rect{MinS: 10e-12, MaxS: 0.8e-9, MinH: 10e-12, MaxH: 0.8e-9}
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = e.pool.NumWorkers()
	}
	start := time.Now()
	sp := opts.Obs.StartSpan(obs.SpanSurface)
	defer sp.End()
	cal, _, err := e.calibrationFor(cell, opts.Eval, sp)
	if err != nil {
		return nil, err
	}
	failDelay := 3 * cal.CharDelay

	factory := func() (surface.EvalFunc, error) {
		inst, err := cell.Build()
		if err != nil {
			return nil, err
		}
		cfg := opts.Eval
		cfg.Obs = sp
		ev, err := stf.NewEvaluatorWithCalibration(inst, cfg, cal)
		if err != nil {
			return nil, err
		}
		ev.SetContext(ctx)
		return func(s, h float64) (float64, error) {
			d, ok, err := ev.ClockToQ(s, h)
			if err != nil {
				return 0, err
			}
			if !ok || d > failDelay {
				return failDelay, nil
			}
			return d, nil
		}, nil
	}
	sAxis := surface.Linspace(opts.Domain.MinS, opts.Domain.MaxS, opts.N)
	hAxis := surface.Linspace(opts.Domain.MinH, opts.Domain.MaxH, opts.N)
	sf, err := surface.GenerateCtx(ctx, sp, sAxis, hAxis, factory, e.pool, workers)
	if err != nil {
		return nil, fmt.Errorf("latchchar: delay surface: %w", err)
	}
	level := (1 + opts.Eval.WithDefaults().Degrade) * cal.CharDelay
	return &DelaySurfaceResult{
		Surface:     sf,
		FailDelay:   failDelay,
		Contour:     sf.Contour(level),
		Calibration: cal,
		Sims:        sf.NumSamples(),
		Elapsed:     time.Since(start),
	}, nil
}
