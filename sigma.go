// The variance-aware Monte-Carlo flow: statistical setup/hold contours at a
// fraction of the naive cost. Naive Monte-Carlo re-characterizes every
// process sample from scratch — bracketing search, full trace, resample —
// so percentile-band accuracy scales as 1/√N in transient simulations.
// Three optimizations stack here:
//
//  1. Quasi-MC sampling (internal/num/sample): Latin-hypercube or scrambled
//     Sobol draws cover the process axes far more evenly than i.i.d. ones.
//  2. Nominal-contour warm starts: the nominal corner is characterized once
//     and resampled onto a probe grid; each sample's contour is then solved
//     by polishing those probe points onto the sample's own curve with MPNR
//     (one or two gradient transients per probe, block-batched when
//     Options.Block > 1), replacing the whole bracketing-plus-trace flow.
//  3. Control variates: percentile bands are estimated from the per-probe
//     *deltas* against the nominal contour rather than absolute contours,
//     so the nominal shape — the dominant, common component — drops out of
//     the variance.
package latchchar

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"latchchar/internal/core"
	"latchchar/internal/num"
	"latchchar/internal/obs"
	"latchchar/internal/stf"
)

// SigmaContours is the statistical contour estimate of a variance-aware
// Monte-Carlo run: per-probe delta statistics against the nominal contour
// and the derived percentile band.
type SigmaContours struct {
	// Level is the band half-width in sample standard deviations (e.g. 3
	// for the 3σ band).
	Level float64
	// Probes are the nominal contour's probe points (arc-length uniform,
	// gradients populated) the deltas are measured at.
	Probes []ContourPoint
	// Delta holds, per probe, the statistics of the signed normal-distance
	// deltas sample contours show against nominal, in seconds. Positive
	// deltas point toward larger skews — the restrictive direction.
	Delta []MCStats
	// Inner is the restrictive percentile contour: nominal displaced by
	// mean + Level·std along each probe normal. A register meeting Inner
	// meets the timing at Level sigmas of process variation.
	Inner *Contour
	// Outer is the permissive band edge: nominal displaced by
	// mean − Level·std.
	Outer *Contour
	// Samples is the number of sample contours folded into the estimate.
	Samples int
}

// MCResult is the outcome of a variance-aware Monte-Carlo run.
type MCResult struct {
	// Nominal is the nominal corner's full characterization, resampled
	// onto the probe grid.
	Nominal *Result
	// Samples holds the per-draw outcomes in sample order. Warm samples
	// carry probe contours (Probes points); cold fallbacks carry a full
	// characterization resampled onto the same grid.
	Samples []MCSample
	// Sigma is the control-variate percentile-band estimate.
	Sigma *SigmaContours
	// NominalSims is the nominal characterization's transient count;
	// TotalSims the whole run's, nominal included.
	NominalSims, TotalSims int
	// SimsSaved estimates the transients avoided vs naive re-
	// characterization: the nominal cost minus the actual cost, summed
	// over warm-started samples (also on the mc_sims_saved counter).
	SimsSaved int
	// WarmSamples and ColdFallbacks count how samples were solved.
	WarmSamples, ColdFallbacks int
	// Elapsed is the wall-clock time of the whole run.
	Elapsed time.Duration
}

// MonteCarloContours is MonteCarloContoursCtx with context.Background().
func MonteCarloContours(mk func(Process) *Cell, nominal Process, opts MCOptions) (*MCResult, error) {
	return MonteCarloContoursCtx(context.Background(), mk, nominal, opts)
}

// MonteCarloContoursCtx runs the variance-aware statistical flow on the
// shared DefaultEngine; see Engine.MonteCarloContours.
func MonteCarloContoursCtx(ctx context.Context, mk func(Process) *Cell, nominal Process, opts MCOptions) (*MCResult, error) {
	return DefaultEngine().MonteCarloContours(ctx, mk, nominal, opts)
}

// MonteCarloContours characterizes the nominal corner once, solves every
// process sample by polishing the nominal contour's probe points onto the
// sample's curve (falling back to a full cold characterization when the
// warm solve diverges), and estimates percentile-band contours from the
// per-probe deltas. Sampling follows MCOptions.Sampler; the sample set is a
// pure function of the options (see MCDraws). Cancellation stops in-flight
// solves mid-transient; the partial MCResult is returned alongside the
// error. Counters mc_warm_seeds, mc_sims_saved and mc_cv_applied land on
// the run's observability.
func (e *Engine) MonteCarloContours(ctx context.Context, mk func(Process) *Cell, nominal Process, opts MCOptions) (*MCResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if mk == nil {
		return nil, optErr("mk", nil, "must be set")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	start := time.Now()
	root := o.Characterize.Obs

	// Nominal corner: one full characterization, resampled onto the probe
	// grid so every probe point carries a polished solution and gradient.
	nomOpts := o.Characterize
	nomOpts.Resample = o.Probes
	var nomJob JobResult
	nomJob.Name = "nominal"
	grp := e.pool.NewGroup(ctx)
	grp.Go(func(context.Context) {
		e.runJob(ctx, Job{Name: "nominal", Cell: mk(nominal), Opts: nomOpts, Cold: true},
			nil, &nomJob, batchConfig{span: obs.SpanMCNominal})
	})
	grp.Wait()
	if nomJob.Err != nil {
		return nil, fmt.Errorf("latchchar: nominal characterization: %w", nomJob.Err)
	}
	nomCt := nomJob.Result.Contour
	res := &MCResult{
		Nominal:     nomJob.Result,
		NominalSims: nomJob.Result.TotalSims(),
	}

	procs, err := drawProcesses(nominal, o)
	if err != nil {
		return nil, err
	}
	res.Samples = make([]MCSample, o.Samples)
	for i := range res.Samples {
		res.Samples[i] = MCSample{Index: i, Process: procs[i]}
	}
	var sem chan struct{}
	if o.Parallelism > 0 {
		sem = make(chan struct{}, o.Parallelism)
	}
	var done atomic.Int64
	grp = e.pool.NewGroup(ctx)
	for i := range res.Samples {
		grp.Go(func(context.Context) {
			if sem != nil {
				sem <- struct{}{}
				defer func() { <-sem }()
			}
			e.runSampleProbe(ctx, mk, nomCt, o, &res.Samples[i])
			root.Progress(obs.Progress{
				Phase: obs.SpanMCSample,
				Done:  int(done.Add(1)), Total: len(res.Samples),
			})
		})
	}
	grp.Wait()

	// Cost accounting: a naive run would have paid about the nominal cost
	// for every sample; warm samples paid their probe solves instead.
	var saved int64
	for i := range res.Samples {
		s := &res.Samples[i]
		if s.Result != nil {
			res.TotalSims += s.Result.TotalSims()
		}
		if s.WarmStarted {
			res.WarmSamples++
			if d := res.NominalSims - s.Result.TotalSims(); d > 0 {
				saved += int64(d)
			}
		} else if s.Err == nil && s.Result != nil {
			res.ColdFallbacks++
		}
	}
	res.TotalSims += res.NominalSims
	res.SimsSaved = int(saved)
	root.Count(obs.CtrMCSimsSaved, saved)

	sig, serr := SigmaFromSamples(nomCt, res.Samples, o.SigmaLevel)
	res.Sigma = sig
	res.Elapsed = time.Since(start)
	if serr != nil {
		if cerr := ctx.Err(); cerr != nil {
			return res, fmt.Errorf("latchchar: monte-carlo contours: %w", context.Cause(ctx))
		}
		return res, fmt.Errorf("latchchar: monte-carlo contours: %w", serr)
	}
	root.Count(obs.CtrMCCVApplied, int64(sig.Samples))
	return res, nil
}

// runSampleProbe solves one process sample from the nominal contour: build
// the sample's evaluator (one calibration transient), polish the nominal
// probe points onto the sample's curve with MPNR — block-batched when the
// characterization options request a block width — and fall back to a full
// cold characterization if the warm solve diverges.
func (e *Engine) runSampleProbe(ctx context.Context, mk func(Process) *Cell, nomCt *Contour, o MCOptions, s *MCSample) {
	sp := o.Characterize.Obs.StartSpan(obs.SpanMCSample)
	defer sp.End()
	if sp.Enabled() {
		sp.Logf("mc-sample %d", s.Index)
	}
	if err := s.Process.NMOS.Validate(); err != nil {
		s.Err = fmt.Errorf("latchchar: sample %d: %w", s.Index, err)
		return
	}
	if err := s.Process.PMOS.Validate(); err != nil {
		s.Err = fmt.Errorf("latchchar: sample %d: %w", s.Index, err)
		return
	}
	start := time.Now()
	cell := mk(s.Process)
	inst, err := cell.Build()
	if err != nil {
		s.Err = fmt.Errorf("latchchar: sample %d: build %s: %w", s.Index, cell.Name, err)
		return
	}
	cfg := o.Characterize.Eval
	cfg.Obs = sp
	ev, err := stf.NewEvaluator(inst, cfg)
	if err != nil {
		s.Err = fmt.Errorf("latchchar: sample %d: evaluator: %w", s.Index, err)
		return
	}
	ev.ResetCounters()
	mpnr := o.Characterize.MPNR
	mpnr.Obs = sp
	if mpnr.HTol <= 0 {
		mpnr.HTol = probeHTol
	}
	probe, perr := probeContour(ctx, ev, nomCt, o.Characterize.Block, mpnr)
	finish := func(ct *Contour) *Result {
		r := &Result{
			Contour:     ct,
			Calibration: ev.Calibration(),
			PlainSims:   ev.PlainEvals,
			GradSims:    ev.GradEvals,
			Stats:       ev.Work,
			Elapsed:     time.Since(start),
		}
		if len(ct.Points) > 0 {
			r.Seed = ct.Points[0]
		}
		return r
	}
	if perr == nil {
		s.Result = finish(probe)
		s.WarmStarted = true
		sp.Count(obs.CtrMCWarmSeeds, 1)
		return
	}
	if errors.Is(perr, ErrCanceled) {
		// probeContour returns no contour on error: the canceled sample
		// keeps an empty one and the transients it spent.
		s.Result = finish(&Contour{Closed: nomCt.Closed})
		s.Err = fmt.Errorf("latchchar: sample %d: %w", s.Index, perr)
		return
	}
	// The warm solve diverged on this sample's curve (a large excursion can
	// move the contour outside the probes' MPNR basins): run the cold flow —
	// bracketing search, trace, resample onto the same probe grid — so the
	// sample still contributes to the estimator. The transients already
	// spent stay in the sample's counters.
	spentPlain, spentGrad := ev.PlainEvals, ev.GradEvals
	copts := o.Characterize
	copts.Obs = sp
	copts.Resample = o.Probes
	cres, _, cerr := characterizeCtx(ctx, ev, copts, nil)
	if cres != nil {
		cres.PlainSims += spentPlain
		cres.GradSims += spentGrad
		cres.Elapsed = time.Since(start)
	}
	s.Result = cres
	if cerr != nil {
		s.Err = fmt.Errorf("latchchar: sample %d: %w", s.Index, cerr)
	}
}

// SigmaFromSamples estimates percentile-band contours from sample contours
// measured against a nominal contour — the control-variate estimator of the
// variance-aware flow, exported so brute-force sample sets reduce through
// the identical arithmetic for comparison. A sample contour with exactly
// one point per nominal probe is measured index-wise (the variance-aware
// probe layout, where point j is the MPNR solution nearest probe j); any
// other contour is measured by projecting each probe onto the sample
// polyline, skipping probes whose nearest point clamps to an open end of
// the sample's arc. Probes with fewer than two usable deltas are dropped
// from the estimate (Probes, Delta and the band contours stay parallel).
// Fewer than two usable samples overall, or no covered probe, is an error
// wrapping ErrNoSamples.
func SigmaFromSamples(nominal *Contour, samples []MCSample, level float64) (*SigmaContours, error) {
	if nominal == nil || len(nominal.Points) < 2 {
		return nil, fmt.Errorf("latchchar: sigma contours need a nominal contour with ≥ 2 points")
	}
	if level <= 0 {
		level = 3
	}
	m := len(nominal.Points)
	ns, nh := probeNormals(nominal.Points)
	perProbe := make([][]float64, m)
	used := 0
	for i := range samples {
		s := &samples[i]
		if s.Err != nil || s.Result == nil || s.Result.Contour == nil || len(s.Result.Contour.Points) < 2 {
			continue
		}
		aligned := len(s.Result.Contour.Points) == m
		counted := false
		for j := 0; j < m; j++ {
			p := nominal.Points[j]
			var d float64
			ok := true
			if aligned {
				q := s.Result.Contour.Points[j]
				d = (q.TauS-p.TauS)*ns[j] + (q.TauH-p.TauH)*nh[j]
			} else {
				d, ok = normalDelta(p, ns[j], nh[j], s.Result.Contour)
			}
			if ok && num.IsFinite(d) {
				perProbe[j] = append(perProbe[j], d)
				counted = true
			}
		}
		if counted {
			used++
		}
	}
	if used < 2 {
		return nil, fmt.Errorf("latchchar: sigma contours need ≥ 2 usable samples, got %d: %w", used, ErrNoSamples)
	}
	sig := &SigmaContours{
		Level:   level,
		Probes:  make([]ContourPoint, 0, m),
		Delta:   make([]MCStats, 0, m),
		Inner:   &Contour{Closed: nominal.Closed, Points: make([]ContourPoint, 0, m)},
		Outer:   &Contour{Closed: nominal.Closed, Points: make([]ContourPoint, 0, m)},
		Samples: used,
	}
	for j := 0; j < m; j++ {
		if len(perProbe[j]) < 2 {
			continue // probe outside most sample arcs: no band estimate here
		}
		st, err := statsOf(perProbe[j])
		if err != nil {
			continue
		}
		p := nominal.Points[j]
		sig.Probes = append(sig.Probes, p)
		sig.Delta = append(sig.Delta, st)
		in := st.Mean + level*st.Std
		out := st.Mean - level*st.Std
		sig.Inner.Points = append(sig.Inner.Points,
			ContourPoint{TauS: p.TauS + in*ns[j], TauH: p.TauH + in*nh[j]})
		sig.Outer.Points = append(sig.Outer.Points,
			ContourPoint{TauS: p.TauS + out*ns[j], TauH: p.TauH + out*nh[j]})
	}
	if len(sig.Delta) == 0 {
		return nil, fmt.Errorf("latchchar: no probe covered by ≥ 2 sample contours: %w", ErrNoSamples)
	}
	return sig, nil
}

// normalDelta measures the signed distance from probe point p to the sample
// polyline along the probe normal (ns, nh): the nearest polyline point,
// projected. Probes whose nearest point clamps to an open end of the
// polyline are outside the sample's traced arc and report ok = false — an
// end vertex would fold tangential truncation into the delta.
func normalDelta(p ContourPoint, ns, nh float64, ct *Contour) (float64, bool) {
	pts := ct.Points
	n := len(pts)
	segs := n - 1
	if ct.Closed {
		segs = n
	}
	best := math.Inf(1)
	var bs, bh float64
	endClamp := false
	for k := 0; k < segs; k++ {
		a, b := pts[k], pts[(k+1)%n]
		vx, vy := b.TauS-a.TauS, b.TauH-a.TauH
		den := vx*vx + vy*vy
		t := 0.0
		if den > 0 {
			t = ((p.TauS-a.TauS)*vx + (p.TauH-a.TauH)*vy) / den
		}
		tc := math.Min(1, math.Max(0, t))
		qs, qh := a.TauS+tc*vx, a.TauH+tc*vy
		d2 := (p.TauS-qs)*(p.TauS-qs) + (p.TauH-qh)*(p.TauH-qh)
		if d2 < best {
			best = d2
			bs, bh = qs, qh
			endClamp = !ct.Closed && ((k == 0 && t < 0) || (k == segs-1 && t > 1))
		}
	}
	if math.IsInf(best, 1) || endClamp {
		return 0, false
	}
	return (bs-p.TauS)*ns + (bh-p.TauH)*nh, true
}

// probeHTol is the residual tolerance of warm probe solves when the caller
// leaves MPNR.HTol unset: at typical contour gradients (~4e9 V/s) 1e-4 V
// bounds the positional error near 0.03 ps — far inside any percentile-band
// tolerance — while saving one to two gradient transients per probe over
// the default sub-femtosecond solve.
const probeHTol = 1e-4

// probeContour polishes the nominal probe points onto this sample's curve.
// A pilot solve at the mid-arc probe measures the sample's contour shift
// first; the remaining probes start displaced by that shift — on the smooth
// arms of the curve the displacement is nearly uniform, so the chained
// seeds land within a picosecond or two of the sample's curve and converge
// in one or two gradient transients each. The remaining probes run through
// the lockstep block-transient kernel in chunks of max(block, 1) lanes; a
// chunk of one is the scalar corrector. Any failed probe fails the whole
// contour (the caller falls back to a cold characterization).
func probeContour(ctx context.Context, ev *Evaluator, nom *Contour, block int, opts MPNROptions) (*Contour, error) {
	pts := nom.Points
	out := &Contour{Closed: nom.Closed}
	mid := len(pts) / 2
	pilot, err := core.SolveMPNRCtx(ctx, ev, pts[mid].TauS, pts[mid].TauH, opts)
	out.GradEvals += pilot.GradEvals
	if err != nil {
		return nil, fmt.Errorf("pilot probe: %w", err)
	}
	ds := pilot.Point.TauS - pts[mid].TauS
	dh := pilot.Point.TauH - pts[mid].TauH
	seedS := make([]float64, 0, len(pts)-1)
	seedH := make([]float64, 0, len(pts)-1)
	idx := make([]int, 0, len(pts)-1)
	for j := range pts {
		if j == mid {
			continue
		}
		seedS = append(seedS, pts[j].TauS+ds)
		seedH = append(seedH, pts[j].TauH+dh)
		idx = append(idx, j)
	}
	solved := make([]ContourPoint, len(pts))
	solved[mid] = pilot.Point
	block = max(block, 1)
	for lo := 0; lo < len(idx); lo += block {
		hi := lo + block
		if hi > len(idx) {
			hi = len(idx)
		}
		results, errs, berr := core.SolveMPNRBlockCtx(ctx, ev, seedS[lo:hi], seedH[lo:hi], opts)
		for i := range results {
			out.GradEvals += results[i].GradEvals
		}
		if berr != nil {
			return nil, fmt.Errorf("probe block at %d: %w", idx[lo], berr)
		}
		for i := range results {
			if errs[i] != nil {
				return nil, fmt.Errorf("probe %d: %w", idx[lo+i], errs[i])
			}
			if !results[i].Converged {
				return nil, fmt.Errorf("probe %d: %w", idx[lo+i], core.ErrNoConvergence)
			}
			solved[idx[lo+i]] = results[i].Point
		}
	}
	out.Points = solved
	return out, nil
}

// probeNormals computes a unit normal per probe point, oriented toward
// larger skews (the restrictive direction, where a slower register pushes
// the contour). The gradient of h is the natural normal; where it is
// degenerate or missing the rotated contour tangent substitutes.
func probeNormals(pts []ContourPoint) (ns, nh []float64) {
	ns = make([]float64, len(pts))
	nh = make([]float64, len(pts))
	for j, p := range pts {
		gs, gh := p.DhdS, p.DhdH
		if n := math.Hypot(gs, gh); n > 0 && num.IsFinite(n) {
			gs, gh = gs/n, gh/n
		} else {
			// Tangent from the neighboring probes, rotated 90°.
			a, b := j, j+1
			if b == len(pts) {
				a, b = j-1, j
			}
			ts, th := pts[b].TauS-pts[a].TauS, pts[b].TauH-pts[a].TauH
			n := math.Hypot(ts, th)
			if n == 0 || !num.IsFinite(n) {
				gs, gh = math.Sqrt2/2, math.Sqrt2/2
			} else {
				gs, gh = -th/n, ts/n
			}
		}
		if gs+gh < 0 {
			gs, gh = -gs, -gh
		}
		ns[j], nh[j] = gs, gh
	}
	return ns, nh
}
