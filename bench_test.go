package latchchar

// Benchmarks regenerating the paper's evaluation artifacts. Each benchmark
// names the experiment in DESIGN.md / EXPERIMENTS.md it backs. Simulation
// counts are reported as custom metrics so the paper's cost comparisons are
// visible independent of host speed.

import (
	"fmt"
	"testing"

	"latchchar/internal/core"
	"latchchar/internal/transient"
)

func mustCell(b *testing.B, name string) *Cell {
	b.Helper()
	cell, err := CellByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return cell
}

// Benchmark names carry the evaluation mode (mode=exact, mode=blockK) and
// the concurrency bound (p=N) as sub-benchmark components, so
// BENCH_core.json comparisons (benchjson -compare) only ever diff
// like-for-like configurations.

// benchCharacterize traces a full contour and reports cost metrics.
func benchCharacterize(b *testing.B, cellName string, points int, eval EvalConfig, block int) {
	cell := mustCell(b, cellName)
	b.ResetTimer()
	var sims, pts, facts int
	for i := 0; i < b.N; i++ {
		res, err := Characterize(cell, Options{
			Points:         points,
			BothDirections: true,
			Block:          block,
			Eval:           eval,
		})
		if err != nil {
			b.Fatal(err)
		}
		sims = res.TotalSims()
		pts = len(res.Contour.Points)
		facts = res.Stats.Factorizations
	}
	b.ReportMetric(float64(sims), "sims")
	b.ReportMetric(float64(sims)/float64(pts), "sims/point")
	b.ReportMetric(float64(facts), "factorizations")
}

// benchContourModes runs the scalar and block-transient contour modes of one
// cell (DESIGN §13).
func benchContourModes(b *testing.B, cellName string, points int) {
	b.Run("mode=exact/p=1", func(b *testing.B) { benchCharacterize(b, cellName, points, EvalConfig{}, 0) })
	b.Run("mode=block8/p=1", func(b *testing.B) { benchCharacterize(b, cellName, points, EvalConfig{}, 8) })
}

// E2 / Fig. 8: TSPC constant clock-to-Q contour by Euler-Newton tracing,
// scalar vs block-transient bundles.
func BenchmarkEulerNewtonTSPC(b *testing.B) { benchContourModes(b, "tspc", 40) }

// E9 / Fig. 12(a): C²MOS contour by Euler-Newton tracing.
func BenchmarkEulerNewtonC2MOS(b *testing.B) { benchContourModes(b, "c2mos", 40) }

// benchSurface generates a brute-force surface and reports cost metrics.
func benchSurface(b *testing.B, cellName string, n int, eval EvalConfig) {
	cell := mustCell(b, cellName)
	domain := Rect{MinS: 100e-12, MaxS: 800e-12, MinH: 100e-12, MaxH: 800e-12}
	b.ResetTimer()
	var sims int
	for i := 0; i < b.N; i++ {
		res, err := BruteForce(cell, SurfaceOptions{
			N: n, Domain: domain, Parallelism: 1, Eval: eval,
		})
		if err != nil {
			b.Fatal(err)
		}
		sims = res.Sims
	}
	b.ReportMetric(float64(sims), "sims")
}

// E1 / Figs. 1(a), 9: brute-force output-surface generation (TSPC).
// The n=40 case is the paper's 40×40 configuration.
func BenchmarkSurfaceTSPC(b *testing.B) {
	for _, n := range []int{10, 20, 40} {
		b.Run(fmt.Sprintf("n=%d/mode=exact/p=1", n), func(b *testing.B) { benchSurface(b, "tspc", n, EvalConfig{}) })
	}
}

// E9 / Fig. 12(b): brute-force surface for the C²MOS register.
func BenchmarkSurfaceC2MOS(b *testing.B) {
	b.Run("n=20/mode=exact/p=1", func(b *testing.B) { benchSurface(b, "c2mos", 20, EvalConfig{}) })
}

// E12: the Monte-Carlo batch path — per-sample contour characterization
// under drawn process variations, scalar vs block-transient bundles.
func BenchmarkMonteCarloTSPC(b *testing.B) {
	tm := DefaultTiming()
	mk := func(p Process) *Cell { return TSPCCell(p, tm) }
	run := func(b *testing.B, block int) {
		var chars int
		for i := 0; i < b.N; i++ {
			samples := MonteCarlo(mk, DefaultProcess(), MCOptions{
				Samples:     4,
				Seed:        1,
				Parallelism: 1,
				Characterize: Options{
					Points:         20,
					BothDirections: true,
					Block:          block,
				},
			})
			chars = 0
			for _, s := range samples {
				if s.Err != nil {
					b.Fatal(s.Err)
				}
				chars++
			}
		}
		b.ReportMetric(float64(chars), "samples")
	}
	b.Run("mode=exact/p=1", func(b *testing.B) { run(b, 0) })
	b.Run("mode=block8/p=1", func(b *testing.B) { run(b, 8) })

	// The naive-vs-variance-aware pair at the paper's contour resolution
	// (n = 40), where full per-sample characterizations dominate: mode=naive
	// re-traces every sample, mode=va replaces the re-traces with warm probe
	// solves seeded from the nominal contour. The sims metrics carry the
	// simulations-saved regression number.
	vaOpts := MCOptions{
		Samples:     4,
		Seed:        1,
		Sampler:     SamplerLHS,
		Parallelism: 1,
		Characterize: Options{
			Points:         40,
			BothDirections: true,
		},
	}
	b.Run("mode=naive/n=40/p=1", func(b *testing.B) {
		var sims int
		for i := 0; i < b.N; i++ {
			samples := MonteCarlo(mk, DefaultProcess(), vaOpts)
			sims = 0
			for _, s := range samples {
				if s.Err != nil {
					b.Fatal(s.Err)
				}
				sims += s.Result.TotalSims()
			}
		}
		b.ReportMetric(float64(sims), "sims")
	})
	b.Run("mode=va/n=40/p=1", func(b *testing.B) {
		var sims, saved int
		for i := 0; i < b.N; i++ {
			mc, err := MonteCarloContours(mk, DefaultProcess(), vaOpts)
			if err != nil {
				b.Fatal(err)
			}
			sims, saved = mc.TotalSims, mc.SimsSaved
		}
		b.ReportMetric(float64(sims), "sims")
		b.ReportMetric(float64(saved), "sims-saved")
	})
}

// E10: the paper's headline — speedup of curve tracing over surface
// generation at matched contour resolution, for n ∈ {10, 20, 40}. The
// "speedup" metric is the transient-simulation ratio n²/EN(n); the paper
// reports ≈26× at n = 40 in wall-clock on its prototyping environment.
func BenchmarkSpeedupSweep(b *testing.B) {
	cell := mustCell(b, "tspc")
	for _, n := range []int{10, 20, 40} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var speedup, sims float64
			for i := 0; i < b.N; i++ {
				res, err := Characterize(cell, Options{
					Points:         n,
					BothDirections: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				perPoint := float64(res.TotalSims()) / float64(len(res.Contour.Points))
				sims = perPoint * float64(n)
				speedup = float64(n*n) / sims
			}
			b.ReportMetric(sims, "sims@n")
			b.ReportMetric(speedup, "speedup")
		})
	}
}

// E11: independent setup/hold characterization — direct Newton (the
// DATE 2007 prior work) vs the binary-search practice.
func BenchmarkIndependentChar(b *testing.B) {
	cell := mustCell(b, "tspc")
	opts := IndependentOptions{Tol: 0.05e-12}
	b.Run("newton", func(b *testing.B) {
		var sims int
		for i := 0; i < b.N; i++ {
			s, h, err := IndependentTimes(cell, EvalConfig{}, opts)
			if err != nil {
				b.Fatal(err)
			}
			sims = s.PlainEvals + s.GradEvals + h.PlainEvals + h.GradEvals
		}
		b.ReportMetric(float64(sims), "sims")
	})
	b.Run("bisection", func(b *testing.B) {
		var sims int
		for i := 0; i < b.N; i++ {
			s, h, err := IndependentBaseline(cell, EvalConfig{}, opts)
			if err != nil {
				b.Fatal(err)
			}
			sims = s.PlainEvals + h.PlainEvals
		}
		b.ReportMetric(float64(sims), "sims")
	})
}

// A1: ablation — integration scheme. TRAP is second-order but BE is
// L-stable; both must trace the same contour, and the bench contrasts their
// corrector effort and wall-clock.
func BenchmarkAblationIntegrator(b *testing.B) {
	b.Run("be", func(b *testing.B) { benchCharacterize(b, "tspc", 20, EvalConfig{Method: transient.BE}, 0) })
	b.Run("trap", func(b *testing.B) { benchCharacterize(b, "tspc", 20, EvalConfig{Method: transient.TRAP}, 0) })
}

// A2: ablation — Euler-Newton tangent continuation vs natural-parameter
// continuation (march τs, solve for τh). Natural continuation spends more
// corrector iterations where the curve is steep and fails outright at
// turning points; here it is benchmarked on the benign part of the curve.
func BenchmarkAblationPredictor(b *testing.B) {
	cell := mustCell(b, "tspc")
	ev, err := NewEvaluator(cell, EvalConfig{})
	if err != nil {
		b.Fatal(err)
	}
	// Seed on the gentle hold-dominated arm: natural continuation cannot
	// even start on the near-vertical setup arm (∂h/∂τh ≈ 0 there), which
	// is exactly the failure mode TestNaturalContinuationFailsAtTurningPoint
	// demonstrates. The benchmark compares effort where both methods work.
	const seedS, seedH = 400e-12, 180e-12
	traceOpts := TraceOptions{Step: 5e-12, MaxPoints: 15,
		Bounds: Rect{MinS: 1e-12, MaxS: 1e-9, MinH: 1e-12, MaxH: 1e-9}}
	b.Run("euler-newton", func(b *testing.B) {
		var evals int
		for i := 0; i < b.N; i++ {
			ct, err := core.TraceContour(ev, seedS, seedH, traceOpts)
			if err != nil {
				b.Fatal(err)
			}
			evals = ct.GradEvals
		}
		b.ReportMetric(float64(evals), "gradEvals")
	})
	b.Run("natural", func(b *testing.B) {
		var evals int
		for i := 0; i < b.N; i++ {
			ct, err := core.TraceContourNatural(ev, seedS, seedH, traceOpts)
			if err != nil {
				b.Fatal(err)
			}
			evals = ct.GradEvals
		}
		b.ReportMetric(float64(evals), "gradEvals")
	})
}

// fdProblem wraps an evaluator, discarding its analytic gradient and
// rebuilding it from central finite differences — what an implementation
// without the sensitivity machinery would have to do. Each gradient then
// costs three transients instead of one.
type fdProblem struct {
	ev   *Evaluator
	step float64
}

func (f *fdProblem) Eval(s, h float64) (float64, error) { return f.ev.Eval(s, h) }

func (f *fdProblem) EvalGrad(s, h float64) (float64, float64, float64, error) {
	h0, err := f.ev.Eval(s, h)
	if err != nil {
		return 0, 0, 0, err
	}
	hp, err := f.ev.Eval(s+f.step, h)
	if err != nil {
		return 0, 0, 0, err
	}
	hh, err := f.ev.Eval(s, h+f.step)
	if err != nil {
		return 0, 0, 0, err
	}
	return h0, (hp - h0) / f.step, (hh - h0) / f.step, nil
}

// A3: ablation — sensitivity-propagated gradients vs finite-difference
// gradients inside the corrector. The sims metric shows the 3× gradient
// cost (plus accuracy risk) the state-transition sensitivities avoid.
func BenchmarkAblationGradient(b *testing.B) {
	cell := mustCell(b, "tspc")
	ev, err := NewEvaluator(cell, EvalConfig{})
	if err != nil {
		b.Fatal(err)
	}
	seed, err := core.FindSeed(ev, core.SeedOptions{})
	if err != nil {
		b.Fatal(err)
	}
	traceOpts := TraceOptions{Step: 5e-12, MaxPoints: 10,
		Bounds: Rect{MinS: 1e-12, MaxS: 1e-9, MinH: 1e-12, MaxH: 1e-9}}
	b.Run("sensitivity", func(b *testing.B) {
		var sims int
		for i := 0; i < b.N; i++ {
			ev.ResetCounters()
			if _, err := core.TraceContour(ev, seed.TauS, seed.TauH, traceOpts); err != nil {
				b.Fatal(err)
			}
			sims = ev.PlainEvals + ev.GradEvals
		}
		b.ReportMetric(float64(sims), "sims")
	})
	b.Run("finite-difference", func(b *testing.B) {
		fd := &fdProblem{ev: ev, step: 0.05e-12}
		var sims int
		for i := 0; i < b.N; i++ {
			ev.ResetCounters()
			if _, err := core.TraceContour(fd, seed.TauS, seed.TauH, traceOpts); err != nil {
				b.Fatal(err)
			}
			sims = ev.PlainEvals + ev.GradEvals
		}
		b.ReportMetric(float64(sims), "sims")
	})
}

// BenchmarkSingleTransient measures the cost of one h evaluation (one
// transient over the measurement grid) with and without sensitivities —
// the unit everything else is priced in.
func BenchmarkSingleTransient(b *testing.B) {
	cell := mustCell(b, "tspc")
	ev, err := NewEvaluator(cell, EvalConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ev.Eval(300e-12, 200e-12); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("with-gradient", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, _, err := ev.EvalGrad(300e-12, 200e-12); err != nil {
				b.Fatal(err)
			}
		}
	})
}
