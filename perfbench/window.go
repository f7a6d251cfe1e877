package main

import (
	"math/rand"
	"time"
)

// opRecord is one op of a window: its index, input and result (ok is false
// when the op failed).
type opRecord[R any] struct {
	i   int
	in  input
	res R
	ok  bool
}

// checker verifies one op's result against the oracle.
type checker[R any] func(orc *oracle, in input, res R, rng *rand.Rand) error

// measureWindow is the untraced measurement of a solver workload: it runs op
// over whole rounds of the sequence for about the window (wall time), each
// after a reference kernel sample, and records each op's CPU time in
// reference time; then it checks every result outside the window.
func measureWindow[R any](cfg config, o *outcome, st solverState, op func(in input, i int) (R, error), check checker[R]) {
	var ops []opRecord[R]
	start := time.Now()
	for i := 0; st.seq.windowOpen(i, start, cfg.window); i++ {
		in := st.seq.at(i)
		o.ref.sample()
		c0 := cpuTime()
		res, err := op(in, i)
		d := o.ref.rescale(cpuTime() - c0)
		o.window += d
		ops = append(ops, opRecord[R]{i: i, in: in, res: res, ok: err == nil})
		if err != nil {
			o.fail("op %d %s: %v", i, in.key, err)
			continue
		}
		o.ops = append(o.ops, d)
	}
	o.set("peak_rss_mb", ownPeakRSSMB(), "MB")
	checkAll(cfg, o, ops, check)
}

// guard is a traced run's identity guard: the untraced production path of
// an op, and the comparison a traced result must pass against its result.
type guard[R any] struct {
	untraced func(in input, i int) (R, error)
	diff     func(traced, untraced R) string
}

// traceWindow is the traced drive's loop: it runs op over the count set —
// the first round, a fixed prefix of the sequence, so at Parallelism 1 its
// work counts are a pure function of the seed — and then whole rounds for
// about the window. op accumulates its own layer split. It returns the ops
// and how many succeeded.
//
// Each count-set op first runs on the untraced production path, back to back
// with the traced drive so both see the same machine state. The results must
// not differ, or the traced split describes a different program; since the
// work counts must match too, this is also the in-process exact-repeat
// check. The untraced runs give the allocations per op (the zero-allocation
// gate's baseline) and, against the traced runs, the tracing overhead.
func traceWindow[R any](cfg config, o *outcome, seq *opSeq, op func(in input, i int) (R, error), g guard[R]) ([]opRecord[R], int) {
	var (
		ops                      []opRecord[R]
		n                        int
		tracedWall, untracedWall time.Duration
		allocs                   allocMeter
	)
	countOps := seq.roundLen()
	start := time.Now()
	for i := 0; i < countOps || seq.windowOpen(i, start, cfg.window); i++ {
		in := seq.at(i)
		var (
			ref   R
			refOK bool
		)
		if i < countOps {
			a0 := readAllocs()
			t0 := time.Now()
			r, err := g.untraced(in, i)
			untracedWall += time.Since(t0)
			allocs.since(a0)
			if err != nil {
				o.problem("identity guard: untraced op %d %s: %v", i, in.key, err)
			}
			ref, refOK = r, err == nil
		}
		t0 := time.Now()
		res, err := op(in, i)
		if i < countOps {
			tracedWall += time.Since(t0)
		}
		ops = append(ops, opRecord[R]{i: i, in: in, res: res, ok: err == nil})
		if err != nil {
			o.fail("op %d %s: %v", i, in.key, err)
			continue
		}
		n++
		if refOK {
			if d := g.diff(res, ref); d != "" {
				o.problem("identity guard: op %d %s differs between the traced and the untraced run: %s", i, in.key, d)
			}
		}
	}
	allocs.perOp(o, countOps)
	o.set("trace_overhead", ratio(float64(tracedWall), float64(untracedWall)), "ratio")
	return ops, n
}

// checkAll counts every op as attempted and checks each successful one.
func checkAll[R any](cfg config, o *outcome, ops []opRecord[R], check checker[R]) {
	orc := newOracle()
	for _, op := range ops {
		o.attempted++
		if !op.ok {
			continue
		}
		if err := check(orc, op.in, op.res, opRNG(cfg.seed, op.i)); err != nil {
			o.fail("op %d check: %v", op.i, err)
		}
	}
}
