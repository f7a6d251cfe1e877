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

// BlockEvalFunc evaluates one full grid row — fixed s, the whole h axis — in
// a single call, writing f(s, h[j]) into out[j], so the row's points can
// share work: the circuit surfaces run them one after another on one
// evaluator, whose rest trail shares the row's common stretch (stf).
type BlockEvalFunc func(s float64, h, out []float64) error

// BlockFactory builds one independent BlockEvalFunc per worker; the function
// it returns is only ever used from a single goroutine.
type BlockFactory func() (BlockEvalFunc, error)

// GenerateBlock is GenerateBlockCtx with context.Background(), no
// observability and a private pool.
func GenerateBlock(sAxis, hAxis []float64, factory BlockFactory, workers int) (*Surface, error) {
	return GenerateBlockCtx(context.Background(), nil, sAxis, hAxis, factory, nil, workers)
}

// GenerateBlockCtx evaluates the field over sAxis × hAxis, one
// BlockEvalFunc call per grid row. Both axes must be strictly increasing.
// A non-nil run receives per-row progress (rows done / total); callers that
// want the sweep grouped start a "surface" span and pass it. A canceled ctx
// stops the sweep between rows (and, through evaluators that honor it,
// mid-transient) and returns the context's cause. The sweep runs as workers
// pool tasks, each of which builds one evaluator and fills rows until none
// are left, so the number of evaluator builds is the concurrency, not the
// row count. The batch engine routes brute-force sweeps here so surface
// grids, corners and Monte-Carlo samples all share one Parallelism bound. A
// nil pool runs the sweep on a private pool of that many workers
// (GOMAXPROCS when workers ≤ 0), closed on return.
func GenerateBlockCtx(ctx context.Context, run *obs.Run, sAxis, hAxis []float64, factory BlockFactory, pool *sched.Pool, workers int) (*Surface, error) {
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
				if inner.Err() != nil {
					fail(fmt.Errorf("surface: canceled at row τs=%g: %w", sf.S[i], context.Cause(inner)))
					return
				}
				if err := eval(sf.S[i], sf.H, sf.V[i]); err != nil {
					fail(fmt.Errorf("surface: row τs=%g: %w", sf.S[i], err))
					return
				}
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
