package latchchar

import (
	"context"
	"fmt"
	"time"

	"latchchar/internal/stf"
	"latchchar/internal/surface"
)

// The paper's Section I describes two brute-force formulations. The primary
// one measures the clock-to-Q *delay* for every trial skew pair — "a
// clock-to-Q delay surface ... followed by extraction of a contour ... that
// contains all points that result in a prescribed increase (e.g., 10%)".
// BruteForce implements the alternative (output level at tf); this file
// implements the delay-surface variant. It is the more expensive baseline:
// every sample's transient runs until the output crosses r — past tf where
// the delay is degraded, the whole search window where the register fails
// to latch — instead of stopping at tf.

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
// Engine.BruteForce. Each row measures ClockToQ point by point.
func (e *Engine) BruteForceDelay(ctx context.Context, cell *Cell, opts SurfaceOptions) (*DelaySurfaceResult, error) {
	start := time.Now()
	sf, cal, err := e.sweep(ctx, cell, opts, func(ev *stf.Evaluator) surface.BlockEvalFunc {
		failDelay := 3 * ev.Calibration().CharDelay
		return func(s float64, h, out []float64) error {
			for j := range h {
				d, ok, err := ev.ClockToQ(s, h[j])
				if err != nil {
					return fmt.Errorf("point τh=%g: %w", h[j], err)
				}
				if !ok || d > failDelay {
					d = failDelay
				}
				out[j] = d
			}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	level := (1 + opts.Eval.WithDefaults().Degrade) * cal.CharDelay
	return &DelaySurfaceResult{
		Surface:     sf,
		FailDelay:   3 * cal.CharDelay,
		Contour:     sf.Contour(level),
		Calibration: cal,
		Sims:        sf.NumSamples(),
		Elapsed:     time.Since(start),
	}, nil
}
