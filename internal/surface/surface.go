// Package surface implements the brute-force baseline the paper compares
// against: generate the output surface over an n×n grid of (τs, τh) trial
// skews (one transient simulation per grid point, parallelized across
// workers), then extract the constant clock-to-Q contour by
// marching-squares interpolation. It also provides the curve-distance
// metrics used to overlay the Euler-Newton contour on the surface contour
// (Figs. 10, 12(b)).
package surface

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"latchchar/internal/obs"
	"latchchar/internal/sched"
)

// Surface holds samples of a scalar field on a regular grid:
// V[i][j] = f(S[i], H[j]).
type Surface struct {
	S, H []float64
	V    [][]float64
}

// Linspace returns n evenly spaced values from lo to hi inclusive.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("surface: Linspace needs n ≥ 2")
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}

// EvalFunc evaluates the field at one grid point.
type EvalFunc func(s, h float64) (float64, error)

// Factory builds one independent EvalFunc per worker; the function it
// returns is only ever used from a single goroutine.
type Factory func() (EvalFunc, error)

// Generate evaluates the field over sAxis × hAxis using up to workers
// concurrent evaluators (default: GOMAXPROCS). Both axes must be strictly
// increasing.
func Generate(sAxis, hAxis []float64, factory Factory, workers int) (*Surface, error) {
	return GenerateCtx(context.Background(), nil, sAxis, hAxis, factory, nil, workers)
}

// newSurface validates the axes and allocates the sample grid.
func newSurface(sAxis, hAxis []float64) (*Surface, error) {
	if len(sAxis) < 2 || len(hAxis) < 2 {
		return nil, fmt.Errorf("surface: axes need at least 2 points")
	}
	for i := 1; i < len(sAxis); i++ {
		if sAxis[i] <= sAxis[i-1] {
			return nil, fmt.Errorf("surface: s axis not increasing")
		}
	}
	for i := 1; i < len(hAxis); i++ {
		if hAxis[i] <= hAxis[i-1] {
			return nil, fmt.Errorf("surface: h axis not increasing")
		}
	}
	sf := &Surface{
		S: append([]float64(nil), sAxis...),
		H: append([]float64(nil), hAxis...),
		V: make([][]float64, len(sAxis)),
	}
	for i := range sf.V {
		sf.V[i] = make([]float64, len(hAxis))
	}
	return sf, nil
}

// GenerateCtx is Generate with observability, cancellation and execution on
// a shared scheduler pool. A non-nil run counts grid evaluations and
// receives per-row progress (rows done / total); callers that want the sweep
// grouped start a "surface" span and pass it. A canceled ctx stops the sweep
// between grid points (and, through evaluators that honor it,
// mid-transient) and returns the context's cause. The sweep runs as workers
// pool tasks, one evaluator each — the batch engine routes brute-force
// sweeps here so surface grids, corners and Monte-Carlo samples all share
// one Parallelism bound. A nil pool runs the sweep on a private pool of
// that many workers (GOMAXPROCS when workers ≤ 0), closed on return.
func GenerateCtx(ctx context.Context, run *obs.Run, sAxis, hAxis []float64, factory Factory, pool *sched.Pool, workers int) (*Surface, error) {
	return generateRows(ctx, run, sAxis, hAxis, factory, pool, workers,
		func(ctx context.Context, eval EvalFunc, sf *Surface, i int) error {
			for j, h := range sf.H {
				if ctx.Err() != nil {
					return fmt.Errorf("surface: canceled at row τs=%g: %w", sf.S[i], context.Cause(ctx))
				}
				v, err := eval(sf.S[i], h)
				if err != nil {
					return fmt.Errorf("surface: point (%g, %g): %w", sf.S[i], h, err)
				}
				sf.V[i][j] = v
			}
			return nil
		})
}

// BlockEvalFunc evaluates one full grid row — fixed s, the whole h axis — in
// a single call, writing f(s, h[j]) into out[j]. The circuit implementation
// runs the row as one lockstep block-transient (stf.Evaluator.EvalBlock), so
// the row shares its stimulus prefix and Jacobians across the h samples.
type BlockEvalFunc func(s float64, h, out []float64) error

// BlockFactory builds one independent BlockEvalFunc per worker; the function
// it returns is only ever used from a single goroutine.
type BlockFactory func() (BlockEvalFunc, error)

// GenerateBlock is GenerateBlockCtx with context.Background(), no
// observability and a private pool.
func GenerateBlock(sAxis, hAxis []float64, factory BlockFactory, workers int) (*Surface, error) {
	return GenerateBlockCtx(context.Background(), nil, sAxis, hAxis, factory, nil, workers)
}

// GenerateBlockCtx is GenerateCtx for row-at-a-time evaluators: each grid
// row is one BlockEvalFunc call instead of len(hAxis) scalar calls. Axes,
// workers, pool routing, cancellation and progress behave exactly like
// GenerateCtx.
func GenerateBlockCtx(ctx context.Context, run *obs.Run, sAxis, hAxis []float64, factory BlockFactory, pool *sched.Pool, workers int) (*Surface, error) {
	return generateRows(ctx, run, sAxis, hAxis, factory, pool, workers,
		func(ctx context.Context, eval BlockEvalFunc, sf *Surface, i int) error {
			if ctx.Err() != nil {
				return fmt.Errorf("surface: canceled at row τs=%g: %w", sf.S[i], context.Cause(ctx))
			}
			if err := eval(sf.S[i], sf.H, sf.V[i]); err != nil {
				return fmt.Errorf("surface: row τs=%g: %w", sf.S[i], err)
			}
			return nil
		})
}

// generateRows is the shared sweep driver behind GenerateCtx and
// GenerateBlockCtx, generic over the per-worker evaluator type: it runs
// workers pool tasks, each of which builds one evaluator and fills rows,
// one row() call each, until none are left. The number of evaluator builds
// is the concurrency, not the row count.
func generateRows[E any](ctx context.Context, run *obs.Run, sAxis, hAxis []float64, factory func() (E, error), pool *sched.Pool, workers int, row func(ctx context.Context, eval E, sf *Surface, i int) error) (*Surface, error) {
	sf, err := newSurface(sAxis, hAxis)
	if err != nil {
		return nil, err
	}
	if pool == nil {
		pool = sched.NewPool(workers)
		defer pool.Close()
	}
	if workers <= 0 {
		workers = pool.NumWorkers()
	}
	if workers > len(sAxis) {
		workers = len(sAxis)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	inner, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var once sync.Once
	var firstErr error
	fail := func(err error) {
		once.Do(func() {
			firstErr = err
			cancel(err)
		})
	}
	var nextRow, rowsDone atomic.Int64
	grp := pool.NewGroup(inner)
	for w := 0; w < workers; w++ {
		grp.Go(func(context.Context) {
			if inner.Err() != nil {
				return
			}
			eval, err := factory()
			if err != nil {
				fail(err)
				return
			}
			for i := int(nextRow.Add(1) - 1); i < len(sf.S); i = int(nextRow.Add(1) - 1) {
				if err := row(inner, eval, sf, i); err != nil {
					fail(err)
					return
				}
				run.Count(obs.CtrPoints, int64(len(sf.H)))
				run.Progress(obs.Progress{
					Phase: obs.SpanSurface,
					Done:  int(rowsDone.Add(1)), Total: len(sf.S),
					TauS: sf.S[i],
				})
			}
		})
	}
	waitErr := grp.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if waitErr != nil {
		return nil, fmt.Errorf("surface: canceled: %w", waitErr)
	}
	return sf, nil
}

// At returns the sampled value at grid indices (i, j).
func (s *Surface) At(i, j int) float64 { return s.V[i][j] }

// NumSamples returns the total number of grid evaluations the surface
// represents (the n² cost of the brute-force method).
func (s *Surface) NumSamples() int { return len(s.S) * len(s.H) }
