package stf

import (
	"fmt"
	"math"

	"latchchar/internal/obs"
	"latchchar/internal/transient"
)

// blockSplit returns the earliest time the lanes' stimuli can differ — the
// shared-prefix horizon handed to the block engine. The data pulse (and its
// skew derivatives) depends on τs only from the leading ramp's start
// (SupportStart) and on τh only from the trailing ramp's (LeadOnlyUntil), so
// lanes agreeing on an axis share that axis's waveform; axes with spread
// diverge at the earliest ramp start among the lanes. Identical lanes share
// everything (+Inf).
func (e *Evaluator) blockSplit(tauS, tauH []float64) float64 {
	d := e.inst.Data
	split := math.Inf(1)
	sMin, sMax := minMax(tauS)
	if sMax > sMin {
		split = d.SupportStart(sMax)
	}
	hMin, hMax := minMax(tauH)
	if hMax > hMin {
		split = math.Min(split, d.LeadOnlyUntil(hMin))
	}
	return split
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// blockEngine returns (building on first use) the block engine for plain or
// gradient-carrying transients: one per kind, whose lanes serve every block
// size and alias lane 0's symbolic analysis.
func (e *Evaluator) blockEngine(skews bool) *transient.BlockEngine {
	be := &e.blkPlain
	if skews {
		be = &e.blkGrad
	}
	if *be == nil {
		*be = transient.NewBlockEngine(e.inst.Circuit, e.cfg.transientOptions(skews), func(lane int) {
			e.inst.Data.SetSkews(e.blkS[lane], e.blkH[lane])
		})
	}
	return *be
}

// EvalBlock computes h(τs, τh) for a block of skew pairs with one lockstep
// multi-lane transient (transient.BlockEngine): nearby points share the
// exact stimulus prefix. Every lane equals Eval at its skews bit for bit,
// whatever the evaluator ran before; a one-lane block runs Eval. A lane that
// peels off the block fails the call with its own error, naming the lane —
// the error Eval would return at that point.
func (e *Evaluator) EvalBlock(tauS, tauH []float64) ([]float64, error) {
	k := len(tauS)
	if len(tauH) != k {
		return nil, fmt.Errorf("stf: EvalBlock skew slices disagree: %d vs %d", k, len(tauH))
	}
	if k == 0 {
		return nil, nil
	}
	if k == 1 {
		h, err := e.Eval(tauS[0], tauH[0])
		if err != nil {
			return nil, err
		}
		return []float64{h}, nil
	}
	e.blkS = append(e.blkS[:0], tauS...)
	e.blkH = append(e.blkH[:0], tauH...)
	res, err := e.blockEngine(false).RunCtx(e.ctx, e.run, k, e.x0, e.grid, e.blockSplit(tauS, tauH), e.trail, e.share(tauS, tauH, true))
	if err != nil {
		return nil, err
	}
	e.PlainEvals += k
	e.run.Count(obs.CtrTransients, int64(k))
	e.Work.Add(res.Stats)
	out := make([]float64, k)
	for i := 0; i < k; i++ {
		if res.Errs[i] != nil {
			return nil, fmt.Errorf("stf: lane %d: %w", i, res.Errs[i])
		}
		out[i] = res.X[i][e.inst.Out] - e.cal.R
	}
	return out, nil
}

// EvalGradBlock is EvalBlock carrying forward sensitivities: h and its
// gradient for every lane, each equal to EvalGrad's bit for bit. A lane that
// peels off reports its own error, naming the lane, in errs without
// invalidating the other lanes; the final error is reserved for whole-block
// failures (cancellation, invalid input) and for a one-lane block's EvalGrad
// error.
func (e *Evaluator) EvalGradBlock(tauS, tauH []float64) (h, dhdS, dhdH []float64, errs []error, err error) {
	k := len(tauS)
	if len(tauH) != k {
		return nil, nil, nil, nil, fmt.Errorf("stf: EvalGradBlock skew slices disagree: %d vs %d", k, len(tauH))
	}
	if k == 0 {
		return nil, nil, nil, nil, nil
	}
	h = make([]float64, k)
	dhdS = make([]float64, k)
	dhdH = make([]float64, k)
	errs = make([]error, k)
	if k == 1 {
		h[0], dhdS[0], dhdH[0], err = e.EvalGrad(tauS[0], tauH[0])
		return h, dhdS, dhdH, errs, err
	}
	e.blkS = append(e.blkS[:0], tauS...)
	e.blkH = append(e.blkH[:0], tauH...)
	res, rerr := e.blockEngine(true).RunCtx(e.ctx, e.run, k, e.x0, e.grid, e.blockSplit(tauS, tauH), e.trail, e.share(tauS, tauH, false))
	if rerr != nil {
		return nil, nil, nil, nil, rerr
	}
	e.GradEvals += k
	e.run.Count(obs.CtrTransientsGrad, int64(k))
	e.Work.Add(res.Stats)
	out := e.inst.Out
	for i := 0; i < k; i++ {
		if res.Errs[i] != nil {
			errs[i] = fmt.Errorf("stf: lane %d: %w", i, res.Errs[i])
			continue
		}
		h[i] = res.X[i][out] - e.cal.R
		dhdS[i] = res.Ms[i][out]
		dhdH[i] = res.Mh[i][out]
	}
	return h, dhdS, dhdH, errs, nil
}
