// Command perfbench is latchchar's end-to-end benchmark. It runs one of four
// seeded workloads through the public entry points users call, checks every
// operation's output against an independent oracle outside the timed window,
// and prints one JSON result line:
//
//	perfbench -root <repo> -daemon <latchchard binary> \
//	    --workload contour|surface|montecarlo|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics (set-up time, throughput,
// median op time, peak RSS). Their times are CPU time rescaled to a fixed
// machine speed, not wall time: see cpuTime and refkernel.go. With --trace 1
// it drives the same work
// layer by layer from outside — timing calls into core, stf, surface, the
// Monte-Carlo flow and the serving layers — and reports the per-layer split,
// the layer coverage, the tracing overhead, and exact-repeat counts. An "op"
// is one contour, one surface, one Monte-Carlo run or one HTTP request.
//
// run.sh builds this binary and the latchchard daemon from the checkout and
// execs it; see BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is the parsed command line.
type config struct {
	root     string
	daemon   string
	workdir  string
	workload string
	seed     int64
	window   time.Duration
	trace    bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload hands back to main: the op tally, any reason
// the run is not correct beyond failed ops, and the metrics. An untraced run
// also hands back its times, rescaled to reference speed (refkernel.go),
// which timeMetrics reports.
type outcome struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric

	ref    refMeter
	setup  []time.Duration // each set-up
	window time.Duration   // all timed ops together
	ops    []time.Duration // the ops op_ref_p50_ms is taken over
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records one failed op with its reason (reported on stderr).
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: failed op: "+format+"\n", args...)
}

// problem records a run-level defect that makes the result incorrect.
func (o *outcome) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	o.problems = append(o.problems, msg)
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	var out outcome
	switch cfg.workload {
	case "contour":
		err = runContour(cfg, &out)
	case "surface":
		err = runSurface(cfg, &out)
	case "montecarlo":
		err = runMonteCarlo(cfg, &out)
	case "serve":
		err = runServe(cfg, &out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	want := endToEndMetrics
	if cfg.trace {
		want = perLayerMetrics
	} else {
		out.timeMetrics()
	}
	for _, name := range want {
		if _, ok := out.metrics[name]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s did not report metric %s\n", cfg.workload, name)
			os.Exit(1)
		}
	}
	for name := range out.metrics {
		if !slices.Contains(want, name) {
			delete(out.metrics, name)
		}
	}
	if out.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no op completed inside the window")
		os.Exit(1)
	}
	line, err := json.Marshal(report{
		Correct:   out.failed == 0 && len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		cfg     config
		seconds int
		trace   int
	)
	fs.StringVar(&cfg.root, "root", ".", "repository checkout holding examples/netlists")
	fs.StringVar(&cfg.daemon, "daemon", "", "latchchard binary for the serve workload")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for the serve workload's daemon address files")
	fs.StringVar(&cfg.workload, "workload", "", "contour, surface, montecarlo or serve")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&seconds, "seconds", 10, "length of the timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced layer-by-layer drive and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	switch cfg.workload {
	case "contour", "surface", "montecarlo", "serve":
	default:
		return cfg, fmt.Errorf("--workload must be contour, surface, montecarlo or serve, got %q", cfg.workload)
	}
	if seconds < 1 {
		return cfg, errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return cfg, errors.New("--trace must be 0 or 1")
	}
	if cfg.workload == "serve" && cfg.daemon == "" {
		return cfg, errors.New("the serve workload needs -daemon")
	}
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	return cfg, nil
}

// endToEndMetrics and perLayerMetrics are the names BENCHMARK.json declares;
// every workload reports all of them (0 where a layer does not run).
var endToEndMetrics = []string{"setup_s", "ops_per_ref_s", "op_ref_p50_ms", "peak_rss_mb"}

var perLayerMetrics = []string{
	"core.seed_ms", "core.trace_ms", "core.self_ms", "core.sims", "core.sims_per_point",
	"core.corrector_iters_per_point", "core.lanes_per_point",
	"stf.calibrate_ms", "stf.eval_calls", "stf.grad_calls", "stf.block_calls", "stf.self_ms", "stf.allocs_per_eval",
	"transient.wall_ms", "transient.self_ms", "transient.steps", "transient.newton_iters",
	"transient.chord_ratio", "transient.sens_ms", "transient.block_peel_offs", "transient.shared_step_ratio",
	"sparse.lu_ms", "sparse.factorizations",
	"circuit.device_eval_ms", "circuit.device_bypasses", "circuit.donor_replays",
	"surface.grid_ms", "surface.extract_ms",
	"mc.nominal_ms", "mc.samples_ms", "mc.sigma_ms", "mc.sims_total", "mc.nominal_sims",
	"mc.warm_ratio", "mc.cold_fallbacks",
	"jobcore.queue_ms", "jobcore.run_ms", "jobcore.hit_ratio", "jobcore.coalesced", "jobcore.render_ms",
	"serve.overhead_ms", "cluster.forward_ms",
	"other_ms", "layer_coverage", "alloc.bytes_per_op", "alloc.objects_per_op", "trace_overhead",
}

// zeroLayers reports 0 for every per-layer metric a workload does not
// exercise, so each traced run prints the full declared set.
func zeroLayers(o *outcome) {
	for _, name := range perLayerMetrics {
		if _, ok := o.metrics[name]; !ok {
			o.set(name, 0, unitOf(name))
		}
	}
}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_per_point"),
		name == "layer_coverage", name == "trace_overhead":
		return "ratio"
	case name == "alloc.bytes_per_op":
		return "B"
	}
	return "count"
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the Harrell–Davis estimate of the q-quantile (0 < q < 1)
// of vs: a Beta(q(n+1), (1−q)(n+1))-weighted mean of all order statistics.
// A median over a few dozen ops of several cells then rests on the several
// samples around the middle rather than on one or two, which keeps it from
// jumping between the cells' modes from run to run. 0 for an empty slice.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := float64(len(s))
	a, b := q*(n+1), (1-q)*(n+1)
	est, prev := 0.0, 0.0
	for i, v := range s {
		cdf := betaInc(a, b, float64(i+1)/n)
		est += (cdf - prev) * v
		prev = cdf
	}
	return est
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes §6.4.
func betaInc(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the incomplete beta continued fraction by Lentz's method.
func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 1000; m++ {
		fm := float64(m)
		for _, num := range []float64{
			fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm)),
			-(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1)),
		} {
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			h *= d * c
		}
		if math.Abs(d*c-1) < 1e-14 {
			break
		}
	}
	return h
}

// median of vs.
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the CPU time (user + system) this process has used so far. The
// end-to-end times are CPU time, not wall time, because the benchmark runs
// on a few vCPUs of a shared host: wall time there also counts the time
// other programs hold the core and, with the kernel's paravirtual steal
// accounting, the time the hypervisor runs other guests on it; wall-time
// metrics of identical runs spread by up to 30%. CPU time leaves both out.
// A solver op runs sequentially (Parallelism 1), so on an idle core its CPU
// time equals its wall time; the Go runtime's concurrent garbage collection
// is part of the cost and is counted. CPU time still follows the host's
// speed; refkernel.go rescales it to a fixed one.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timeMetrics reports the time metrics of an untraced run, all in reference
// time: setup_s, the median set-up; ops_per_ref_s, correct ops per second of
// the timed ops; op_ref_p50_ms, the median op. Sample counts go to stderr.
func (o *outcome) timeMetrics() {
	setup := make([]float64, len(o.setup))
	for i, d := range o.setup {
		setup[i] = d.Seconds()
	}
	ops := make([]float64, len(o.ops))
	for i, d := range o.ops {
		ops[i] = ms(d)
	}
	ok := o.attempted - o.failed
	o.set("setup_s", median(setup), "s")
	o.set("ops_per_ref_s", ratio(float64(ok), o.window.Seconds()), "1/s")
	o.set("op_ref_p50_ms", median(ops), "ms")
	fmt.Fprintf(os.Stderr, "perfbench: reference time: set-up %v; %d ok ops in %v; op median over %d ops; last kernel sample %.3f ms\n",
		o.setup, ok, o.window, len(ops), o.ref.last)
}

// ownPeakRSSMB is this process's resident-set high-water mark.
func ownPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// allocMeter holds cumulative heap allocation: the process totals when read
// with readAllocs, or the sum over measured intervals.
type allocMeter struct{ bytes, objects uint64 }

func readAllocs() allocMeter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocMeter{m.TotalAlloc, m.Mallocs}
}

// since adds the allocations made since start.
func (a *allocMeter) since(start allocMeter) {
	now := readAllocs()
	a.bytes += now.bytes - start.bytes
	a.objects += now.objects - start.objects
}

// perOp reports the accumulated allocations divided over n ops.
func (a allocMeter) perOp(o *outcome, n int) {
	o.set("alloc.bytes_per_op", ratio(float64(a.bytes), float64(n)), "B")
	o.set("alloc.objects_per_op", ratio(float64(a.objects), float64(n)), "count")
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// repeatSetup runs one set-up several times, each after a reference kernel
// sample, and records each one's reference time for setup_s, returning the
// state of the last repetition. Earlier states are released through drop. extra,
// when not nil, adds CPU time the set-up used outside this process (the
// serve workload's daemons).
func repeatSetup[T any](o *outcome, setup func() (T, error), drop func(T), extra func(T) time.Duration) (T, error) {
	var state T
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			drop(state)
		}
		o.ref.sample()
		c0 := cpuTime()
		s, err := setup()
		if err != nil {
			var zero T
			return zero, err
		}
		d := cpuTime() - c0
		if extra != nil {
			d += extra(s)
		}
		o.setup = append(o.setup, o.ref.rescale(d))
		state = s
	}
	return state, nil
}

// coverage reports other_ms and layer_coverage from the per-op wall time and
// the summed exclusive layer times, flagging coverage below the 0.9 gate.
func coverage(o *outcome, workload string, wallMS, layersMS float64) {
	o.set("other_ms", wallMS-layersMS, "ms")
	c := ratio(layersMS, wallMS)
	o.set("layer_coverage", c, "ratio")
	if c < 0.9 {
		fmt.Fprintf(os.Stderr, "perfbench: %s layer coverage %.3f is below the 0.9 gate\n", workload, c)
	}
}
