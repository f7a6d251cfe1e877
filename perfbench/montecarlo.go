package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"latchchar"
	"latchchar/internal/obs"
	"latchchar/internal/transient"
)

// mcCharOpts configures the nominal and cold-fallback characterizations of a
// Monte-Carlo op.
var mcCharOpts = latchchar.Options{Points: 40, Block: 8, Eval: latchchar.DefaultFastPath()}

// mcOptions is one op's Monte-Carlo configuration: 16 Latin-hypercube
// samples, sequential, at the op's own draw seed.
func mcOptions(seed int64, run *obs.Run) latchchar.MCOptions {
	co := mcCharOpts
	co.Obs = run
	return latchchar.MCOptions{
		Samples:      16,
		Seed:         seed,
		Sampler:      latchchar.SamplerLHS,
		Parallelism:  1,
		Characterize: co,
	}
}

// mcSeed is op i's draw seed: fresh for every op.
func mcSeed(seed int64, i int) int64 { return seed<<20 + int64(i) }

var mcCells = []string{"tspc"}

// mcSetup warms the engine with one small Monte-Carlo run; the hot input is
// TSPC's nominal corner, whose calibration every hot op's nominal reuses.
func mcSetup(cfg config) (solverState, error) {
	return solverSetup(cfg, mcCells, nominalInputs(mcCells), mcCharOpts.Eval, "tspc", func(eng *latchchar.Engine, in input) error {
		opts := mcOptions(^cfg.seed, nil)
		opts.Samples = 4
		_, err := eng.MonteCarloContours(context.Background(), in.mk, in.cell.Process, opts)
		return err
	})
}

// runMC is one Monte-Carlo op on eng, traced when run is non-nil.
func runMC(eng *latchchar.Engine, seed int64, in input, i int, run *obs.Run) (*latchchar.MCResult, error) {
	return eng.MonteCarloContours(context.Background(), in.mk, in.cell.Process, mcOptions(mcSeed(seed, i), run))
}

func runMonteCarlo(cfg config, o *outcome) error {
	if cfg.trace {
		return traceMonteCarlo(cfg, o)
	}
	st, err := repeatSetup(o, func() (solverState, error) { return mcSetup(cfg) }, solverState.close, nil)
	if err != nil {
		return err
	}
	defer st.close()
	measureWindow(cfg, o, st, func(in input, i int) (*latchchar.MCResult, error) {
		return runMC(st.eng, cfg.seed, in, i, nil)
	}, (*oracle).checkMC)
	return nil
}

// checkMC verifies one Monte-Carlo run: every sample solved, sampled nominal
// probes on the exact nominal curve, one sampled probe of every warm sample
// on that sample's exact curve, and the band edges on opposite sides of the
// nominal contour at every probe.
func (o *oracle) checkMC(in input, res *latchchar.MCResult, rng *rand.Rand) error {
	if res.Sigma == nil || res.Nominal == nil || res.Nominal.Contour == nil {
		return fmt.Errorf("%s: no sigma estimate", in.key)
	}
	for _, s := range res.Samples {
		if s.Err != nil || s.Result == nil || s.Result.Contour == nil {
			return fmt.Errorf("%s: sample %d failed: %v", in.key, s.Index, s.Err)
		}
	}
	ev, err := o.exact(in, res.Nominal.Calibration)
	if err != nil {
		return err
	}
	if err := checkPoints(ev, res.Nominal.Contour.Points, 2, hGate, rng); err != nil {
		return fmt.Errorf("%s nominal: %w", in.key, err)
	}
	for _, s := range res.Samples {
		if !s.WarmStarted {
			continue
		}
		// The calibration transient is held to tfGate through the nominal
		// above; the sample is checked at its own calibration.
		sev, err := exactAt(in.mk(s.Process), s.Result.Calibration)
		if err != nil {
			return fmt.Errorf("%s sample %d: %w", in.key, s.Index, err)
		}
		if err := checkPoints(sev, s.Result.Contour.Points, 1, probeGate, rng); err != nil {
			return fmt.Errorf("%s sample %d: %w", in.key, s.Index, err)
		}
	}
	sig := res.Sigma
	for j, p := range sig.Probes {
		in, out := sig.Inner.Points[j], sig.Outer.Points[j]
		dot := (in.TauS-p.TauS)*(out.TauS-p.TauS) + (in.TauH-p.TauH)*(out.TauH-p.TauH)
		if !(dot < 0) {
			return fmt.Errorf("probe %d: inner and outer band edges are not on opposite sides of nominal", j)
		}
	}
	return nil
}

// mcTotals sums a Monte-Carlo result's work, nominal included, computed
// directly from the per-run results.
type mcTotals struct {
	sims, nominalSims, warm, fallbacks, samples int
	points, correctorIters                      int
	work                                        transient.Stats
	nominal, samplesWall                        time.Duration
}

func (t *mcTotals) add(res *latchchar.MCResult) {
	t.nominalSims += res.Nominal.TotalSims()
	t.sims += res.Nominal.TotalSims()
	t.work.Add(res.Nominal.Stats)
	t.nominal += res.Nominal.Elapsed
	t.addPoints(res.Nominal.Contour)
	for _, s := range res.Samples {
		t.samples++
		if s.WarmStarted {
			t.warm++
		} else if s.Err == nil && s.Result != nil {
			t.fallbacks++
		}
		if s.Result == nil {
			continue
		}
		t.sims += s.Result.TotalSims()
		t.work.Add(s.Result.Stats)
		t.samplesWall += s.Result.Elapsed
		t.addPoints(s.Result.Contour)
	}
}

func (t *mcTotals) addPoints(ct *latchchar.Contour) {
	if ct == nil {
		return
	}
	t.points += len(ct.Points)
	for _, p := range ct.Points {
		t.correctorIters += p.CorrectorIters
	}
}

// mcDiff describes how two Monte-Carlo runs differ: in the work done
// (sims, cold fallbacks, integrator counts) or in the band contours beyond
// the guard tolerances.
func mcDiff(a, b *latchchar.MCResult) string {
	var ta, tb mcTotals
	ta.add(a)
	tb.add(b)
	if ta.sims != tb.sims || ta.fallbacks != tb.fallbacks || !sameCounts(ta.work, tb.work) {
		return fmt.Sprintf("work differs: sims %d vs %d, cold fallbacks %d vs %d, factorizations %d vs %d",
			ta.sims, tb.sims, ta.fallbacks, tb.fallbacks, ta.work.Factorizations, tb.work.Factorizations)
	}
	if d := contourDiff(a.Sigma.Inner, b.Sigma.Inner); d != "" {
		return "inner band: " + d
	}
	if d := contourDiff(a.Sigma.Outer, b.Sigma.Outer); d != "" {
		return "outer band: " + d
	}
	return ""
}

// traceMonteCarlo runs Engine.MonteCarloContours with an obs run attached,
// which turns on the transient time attribution in every nominal and sample
// Result, and reads the split from the MCResult: the nominal's and samples'
// Elapsed and Stats, the calibrate/seed/trace phases of the obs run, and
// SigmaFromSamples re-timed from outside.
func traceMonteCarlo(cfg config, o *outcome) error {
	st, err := mcSetup(cfg)
	if err != nil {
		return err
	}
	defer st.close()
	// The traced ops run on the set-up engine; the untraced guard runs need
	// an engine of their own whose calibration LRU starts in the same state.
	eng, err := newEngine(st.hot, mcCharOpts.Eval)
	if err != nil {
		return err
	}
	defer eng.Close()
	countOps := st.seq.roundLen()
	var (
		tot, counted                            mcTotals
		wall, sigma, calibrate, seedPh, tracePh time.Duration
	)
	ops, n := traceWindow(cfg, o, st.seq, func(in input, i int) (*latchchar.MCResult, error) {
		run := obs.New()
		t0 := time.Now()
		res, err := runMC(st.eng, cfg.seed, in, i, run)
		d := time.Since(t0)
		run.Close()
		if err != nil {
			return nil, err
		}
		ts := time.Now()
		if _, err := latchchar.SigmaFromSamples(res.Nominal.Contour, res.Samples, res.Sigma.Level); err != nil {
			return nil, fmt.Errorf("re-timing SigmaFromSamples: %w", err)
		}
		sigma += time.Since(ts)
		sum := run.Summary()
		calibrate += sum.Phase(obs.SpanCalibrate).Total
		seedPh += sum.Phase(obs.SpanSeed).Total
		tracePh += sum.Phase(obs.SpanTrace).Total
		wall += d
		tot.add(res)
		if i < countOps {
			counted.add(res)
		}
		return res, nil
	}, guard[*latchchar.MCResult]{
		untraced: func(in input, i int) (*latchchar.MCResult, error) { return runMC(eng, cfg.seed, in, i, nil) },
		diff:     mcDiff,
	})
	if n == 0 {
		return fmt.Errorf("every traced op failed")
	}
	per := func(d time.Duration) float64 { return ms(d) / float64(n) }
	w := tot.work
	o.set("mc.nominal_ms", per(tot.nominal), "ms")
	o.set("mc.samples_ms", per(tot.samplesWall), "ms")
	o.set("mc.sigma_ms", per(sigma), "ms")
	o.set("stf.calibrate_ms", per(calibrate), "ms")
	o.set("core.seed_ms", per(seedPh), "ms")
	o.set("core.trace_ms", per(tracePh), "ms")
	// Solver-side time outside transients and calibration: the MPNR and
	// tracer arithmetic plus evaluator plumbing of the nominal and samples.
	o.set("core.self_ms", per(tot.nominal+tot.samplesWall-w.Wall-calibrate), "ms")
	o.set("transient.wall_ms", per(w.Wall), "ms")
	o.set("transient.self_ms", per(w.Wall-w.LU-w.DeviceEval-w.Sens), "ms")
	o.set("transient.sens_ms", per(w.Sens), "ms")
	o.set("sparse.lu_ms", per(w.LU), "ms")
	o.set("circuit.device_eval_ms", per(w.DeviceEval), "ms")
	coverage(o, "montecarlo", per(wall), per(tot.nominal+tot.samplesWall+sigma))

	k := float64(countOps)
	o.set("mc.sims_total", float64(counted.sims)/k, "count")
	o.set("mc.nominal_sims", float64(counted.nominalSims)/k, "count")
	o.set("mc.cold_fallbacks", float64(counted.fallbacks)/k, "count")
	o.set("mc.warm_ratio", ratio(float64(counted.warm), float64(counted.samples)), "ratio")
	o.set("core.sims", float64(counted.sims)/k, "count")
	o.set("core.sims_per_point", ratio(float64(counted.sims), float64(counted.points)), "ratio")
	o.set("core.corrector_iters_per_point", ratio(float64(counted.correctorIters), float64(counted.points)), "ratio")
	workCounts(o, counted.work, countOps)
	for _, op := range ops {
		if op.ok {
			if err := allocsPerEval(o, op.in.cell, op.res.Nominal.Contour.Points[:surfaceOpts.Block], true); err != nil {
				return err
			}
			break
		}
	}
	checkAll(cfg, o, ops, (*oracle).checkMC)
	zeroLayers(o)
	return nil
}
