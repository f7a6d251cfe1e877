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

// gradBlock returns (building on first use) the block engine of
// EvalGradBlock, whose lanes serve every block size and alias lane 0's
// symbolic analysis.
func (e *Evaluator) gradBlock() *transient.BlockEngine {
	if e.blk == nil {
		e.blk = transient.NewBlockEngine(e.inst.Circuit, e.cfg.transientOptions(true), func(lane int) {
			e.inst.Data.SetSkews(e.blkS[lane], e.blkH[lane])
		})
	}
	return e.blk
}

// EvalBlock computes h(τs, τh) for a block of skew pairs: Eval at each pair
// in turn, so every value equals Eval's bit for bit and the pairs of one τs
// share their common stretch on the rest trail's branch as a surface row's
// runs do (DESIGN §5). A pair whose transient fails ends the call with
// Eval's error, naming the pair's lane.
func (e *Evaluator) EvalBlock(tauS, tauH []float64) ([]float64, error) {
	if len(tauH) != len(tauS) {
		return nil, fmt.Errorf("stf: EvalBlock skew slices disagree: %d vs %d", len(tauS), len(tauH))
	}
	out := make([]float64, len(tauS))
	for i := range tauS {
		h, err := e.Eval(tauS[i], tauH[i])
		if err != nil {
			return nil, fmt.Errorf("stf: lane %d: %w", i, err)
		}
		out[i] = h
	}
	return out, nil
}

// EvalGradBlock computes h and its gradient for a block of skew pairs with
// one lockstep multi-lane transient carrying forward sensitivities
// (transient.BlockEngine): nearby points share the exact stimulus prefix.
// Every lane equals EvalGrad at its skews bit for bit, whatever the
// evaluator ran before; a one-lane block runs EvalGrad. A lane that peels
// off reports its own error, naming the lane, in errs without invalidating
// the other lanes; the final error is reserved for whole-block failures
// (cancellation, invalid input) and for a one-lane block's EvalGrad error.
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
	res, rerr := e.gradBlock().RunCtx(e.ctx, e.run, k, e.x0, e.grid, e.blockSplit(tauS, tauH), e.trail, transient.Share{Rest: e.restUntil(tauS, tauH)})
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
