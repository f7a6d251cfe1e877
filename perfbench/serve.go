package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"latchchar"
	"latchchar/internal/serve/jobcore"
	"latchchar/internal/transient"
	"latchchar/serveclient"
)

// The serve workload: a coordinator plus two latchchard workers (each
// -parallelism 1) on loopback, driven by a closed loop of one serveclient
// client in this process (a characterization caller waits for its reply).
// Ops alternate 1:1 between cold requests — TSPC at a seeded, never-repeated
// process with no_cache — and hot requests, one of hotRequests fixed requests
// warmed into the workers' result LRU during set-up.
//
// One client sends one request at a time, so the CPU time the benchmark and
// the daemons use between a request and its reply is that request's cost. A
// run sends serveRate requests per second of --seconds rather than sending
// for that long: each request grows a daemon's resident set, so a window
// closed on wall time would make peak RSS follow how busy the host is.
const (
	hotRequests = 4
	serveRate   = 16
	// serveCountOps is the serve trace's count set: the first cold ops.
	serveCountOps = 8
	// hotSeed fixes the hot requests across workload seeds.
	hotSeed = 20070604
)

var serveOpts = serveclient.OptionsRequest{Points: 20, Block: 8, FastPath: true}

// serveRequest is the wire request for TSPC at process p.
func serveRequest(p latchchar.Process, noCache bool) (*serveclient.CharacterizeRequest, error) {
	raw, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	return &serveclient.CharacterizeRequest{Cell: "tspc", Process: raw, Options: serveOpts, Wait: true, NoCache: noCache}, nil
}

// daemon is one running latchchard process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
}

// cluster is a running coordinator with its workers, plus the hot requests
// and the worker that owns each on the hash ring.
type cluster struct {
	dir     string
	workers []*daemon
	coord   *daemon
	hot     []*serveclient.CharacterizeRequest
	owner   []string
}

// startDaemon launches latchchard with args and waits for its bound address.
func startDaemon(bin, addrFile string, args ...string) (*daemon, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-addrfile", addrFile, "-log-level", "off"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// The daemon must not outlive the benchmark, whatever way it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start latchchard: %w", err)
	}
	d := &daemon{cmd: cmd}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(b), "\n") {
			d.addr = strings.TrimSpace(string(b))
			return d, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("latchchard %v did not report its address", args)
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing it
// if the drain overruns.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait() // the exit status of a drained daemon carries no information here
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

// peakRSSMB reads the daemon's resident-set high-water mark.
func (d *daemon) peakRSSMB() float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// clockTick is the unit of the CPU times in /proc/<pid>/stat (USER_HZ, 100 on
// every Linux architecture).
const clockTick = 10 * time.Millisecond

// cpu reads the daemon's CPU time (user + system, all threads) from
// /proc/<pid>/stat, to the 10 ms clock tick.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name in parentheses may hold spaces; utime and stime are
	// the 12th and 13th fields after it.
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", d.cmd.Process.Pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return time.Duration(ticks) * clockTick, nil
}

// daemonCPU is the CPU time the cluster's daemons have used since they
// started.
func (c *cluster) daemonCPU() (time.Duration, error) {
	var t time.Duration
	for _, d := range append([]*daemon{c.coord}, c.workers...) {
		v, err := d.cpu()
		if err != nil {
			return 0, fmt.Errorf("daemon CPU time: %w", err)
		}
		t += v
	}
	return t, nil
}

// cpu is the CPU time used so far by this process and the daemons.
func (c *cluster) cpu() (time.Duration, error) {
	t, err := c.daemonCPU()
	return t + cpuTime(), err
}

func (c *cluster) stop() {
	if c == nil {
		return
	}
	c.coord.stop()
	for _, w := range c.workers {
		w.stop()
	}
	os.RemoveAll(c.dir)
}

// startCluster brings up two workers and a coordinator, waits until the
// coordinator sees both workers up, then warms the hot requests through the
// coordinator and records which worker owns each (the one whose completed
// job count moved).
func startCluster(cfg config, hotProcs []latchchar.Process) (c *cluster, err error) {
	dir, err := os.MkdirTemp(cfg.workdir, "serve-")
	if err != nil {
		return nil, err
	}
	c = &cluster{dir: dir}
	defer func() {
		if err != nil {
			c.stop()
		}
	}()
	for i := 0; i < 2; i++ {
		w, err := startDaemon(cfg.daemon, filepath.Join(dir, fmt.Sprintf("w%d.addr", i)), "-parallelism", "1")
		if err != nil {
			return c, err
		}
		c.workers = append(c.workers, w)
	}
	c.coord, err = startDaemon(cfg.daemon, filepath.Join(dir, "co.addr"), "-mode", "coordinator",
		"-workers", c.workers[0].addr+","+c.workers[1].addr)
	if err != nil {
		return c, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	co := serveclient.New(c.coord.addr)
	for {
		st, err := co.ClusterStatusz(ctx)
		if err == nil && st.WorkersUp == 2 {
			break
		}
		if ctx.Err() != nil {
			return c, fmt.Errorf("cluster did not come up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, p := range hotProcs {
		req, err := serveRequest(p, false)
		if err != nil {
			return c, err
		}
		before, err := c.jobsDone(ctx)
		if err != nil {
			return c, err
		}
		st, err := co.Characterize(ctx, req)
		if err != nil || st.State != serveclient.StateDone {
			return c, fmt.Errorf("warming a hot request: %v %v", err, st)
		}
		after, err := c.jobsDone(ctx)
		if err != nil {
			return c, err
		}
		owner := ""
		for i, w := range c.workers {
			if after[i] > before[i] {
				owner = w.addr
			}
		}
		if owner == "" {
			return c, fmt.Errorf("no worker ran the warm-up of a hot request")
		}
		c.hot = append(c.hot, req)
		c.owner = append(c.owner, owner)
	}
	return c, nil
}

// jobsDone reads every worker's completed-job counter.
func (c *cluster) jobsDone(ctx context.Context) ([]int64, error) {
	out := make([]int64, len(c.workers))
	for i, w := range c.workers {
		st, err := serveclient.New(w.addr).Statusz(ctx)
		if err != nil {
			return nil, fmt.Errorf("worker statusz: %w", err)
		}
		out[i] = st.JobsDone
	}
	return out, nil
}

// serveOp is one completed request.
type serveOp struct {
	index   int
	cold    bool
	latency time.Duration
	// cpu is the CPU time this process and the daemons used between the
	// request and its reply, in reference time (untraced loop only).
	cpu    time.Duration
	status *serveclient.JobStatus
	err    error
	// direct is the latency of the same hot request sent straight to its
	// owning worker (traced half only; 0 otherwise).
	direct time.Duration
}

// loadLoop sends n requests, one at a time, from op index first and returns
// the ops in order with the loop's wall time. With ref set (the untraced
// loop), a reference kernel sample precedes each cold request, each op's CPU
// time is taken in reference time, and the loop also returns their sum.
// With direct set, each hot request is also sent straight to its owning
// worker.
func loadLoop(c *cluster, cold func(k int) *serveclient.CharacterizeRequest, hotOrder []int, first, n int, ref *refMeter, direct bool) (ops []serveOp, wall, cpu time.Duration, err error) {
	co := serveclient.New(c.coord.addr)
	owners := map[string]*serveclient.Client{}
	for _, w := range c.workers {
		owners[w.addr] = serveclient.New(w.addr)
	}
	start := time.Now()
	for i := first; i < first+n; i++ {
		op := serveOp{index: i, cold: i%2 == 0}
		var req *serveclient.CharacterizeRequest
		h := 0
		if op.cold {
			if ref != nil {
				ref.sample()
			}
			req = cold(i / 2)
		} else {
			h = hotOrder[(i/2)%len(hotOrder)]
			req = c.hot[h]
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		var c0, c1 time.Duration
		if ref != nil {
			if c0, err = c.cpu(); err != nil {
				cancel()
				return nil, 0, 0, err
			}
		}
		t0 := time.Now()
		op.status, op.err = co.Characterize(ctx, req)
		op.latency = time.Since(t0)
		if ref != nil {
			if c1, err = c.cpu(); err != nil {
				cancel()
				return nil, 0, 0, err
			}
			op.cpu = ref.rescale(c1 - c0)
			cpu += op.cpu
		}
		if direct && !op.cold && op.err == nil {
			t1 := time.Now()
			st, err := owners[c.owner[h]].Characterize(ctx, req)
			op.direct = time.Since(t1)
			if err != nil || !st.Cached {
				op.direct = 0
			}
		}
		cancel()
		ops = append(ops, op)
	}
	return ops, time.Since(start), cpu, nil
}

// serveInputs are the run's request generators: the cold processes from the
// seed and the hot requests' visiting order.
type serveInputs struct {
	coldProcs []latchchar.Process
	hotProcs  []latchchar.Process
	hotOrder  []int
}

func newServeInputs(seed int64) (*serveInputs, error) {
	cold, err := corners(seed, maxOps/2)
	if err != nil {
		return nil, err
	}
	hot, err := corners(hotSeed, hotRequests)
	if err != nil {
		return nil, err
	}
	order := rand.New(rand.NewSource(seed)).Perm(hotRequests)
	return &serveInputs{coldProcs: cold, hotProcs: hot, hotOrder: order}, nil
}

func (s *serveInputs) cold(k int) *serveclient.CharacterizeRequest {
	req, err := serveRequest(s.coldProcs[k%len(s.coldProcs)], true)
	if err != nil {
		panic(err) // a Process is plain float fields; encoding cannot fail
	}
	return req
}

func runServe(cfg config, o *outcome) error {
	in, err := newServeInputs(cfg.seed)
	if err != nil {
		return err
	}
	var c *cluster
	if cfg.trace {
		c, err = startCluster(cfg, in.hotProcs)
	} else {
		c, err = repeatSetup(o, func() (*cluster, error) { return startCluster(cfg, in.hotProcs) }, (*cluster).stop,
			func(c *cluster) time.Duration {
				t, err := c.daemonCPU()
				if err != nil {
					o.problem("set-up: %v", err)
				}
				return t
			})
	}
	if err != nil {
		return err
	}
	defer c.stop()

	n := serveRate * int(cfg.window/time.Second)
	var ops []serveOp
	if cfg.trace {
		// First half untraced, second half with every hot op also sent
		// straight to its owning worker; the throughput ratio of the two
		// halves is the tracing overhead. Allocations are the client's over
		// the untraced half.
		half := n/2 + n/2%2 // even, so cold ops stay on even indices
		a0 := readAllocs()
		plain, plainWall, _, err := loadLoop(c, in.cold, in.hotOrder, 0, half, nil, false)
		if err != nil {
			return err
		}
		var allocs allocMeter
		allocs.since(a0)
		allocs.perOp(o, len(plain))
		traced, tracedWall, _, err := loadLoop(c, in.cold, in.hotOrder, half, half, nil, true)
		if err != nil {
			return err
		}
		ops = append(plain, traced...)
		o.set("trace_overhead", ratio(float64(len(plain))/plainWall.Seconds(), float64(len(traced))/tracedWall.Seconds()), "ratio")
	} else if ops, _, o.window, err = loadLoop(c, in.cold, in.hotOrder, 0, n, &o.ref, false); err != nil {
		return err
	}
	rss := ownPeakRSSMB() + c.coord.peakRSSMB()
	for _, w := range c.workers {
		rss += w.peakRSSMB()
	}

	for _, op := range ops {
		o.attempted++
		if op.err != nil || op.status == nil || op.status.State != serveclient.StateDone {
			o.fail("request %d: %v %v", op.index, op.err, op.status)
			continue
		}
		if op.cold {
			o.ops = append(o.ops, op.cpu)
		}
	}
	refs, err := checkServe(cfg, o, in, c, ops)
	if err != nil {
		return err
	}
	if cfg.trace {
		serveLayers(o, ops, refs)
		zeroLayers(o)
		return nil
	}
	// op_ref_p50_ms covers the ops that run a characterization: here the
	// cold requests (a cached reply runs none). The median of the 1:1 mix
	// would fall in the gap between the two modes.
	o.set("peak_rss_mb", rss, "MB")
	return nil
}

// checkServe verifies every request outside the timed window: sampled points
// of cold results on the exact evaluator at the result's own calibration,
// hot results against the in-process Engine's result for the same request.
// It returns the in-process reference results of the hot requests.
func checkServe(cfg config, o *outcome, in *serveInputs, c *cluster, ops []serveOp) ([]*latchchar.Result, error) {
	eng, err := latchchar.NewEngine(latchchar.EngineOptions{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	refs := make([]*latchchar.Result, len(c.hot))
	refJSON := make([]*serveclient.ResultJSON, len(c.hot))
	for h, req := range c.hot {
		cell, opts, _, err := jobcore.Resolve(req)
		if err != nil {
			return nil, err
		}
		if refs[h], err = eng.Characterize(context.Background(), cell, opts); err != nil {
			return nil, fmt.Errorf("in-process reference for hot request %d: %w", h, err)
		}
		refJSON[h] = jobcore.RenderResult(cell.Name, refs[h])
	}
	for _, op := range ops {
		if op.err != nil || op.status == nil || op.status.State != serveclient.StateDone {
			continue
		}
		res := op.status.Result
		if res == nil {
			o.fail("request %d: done without a result", op.index)
			continue
		}
		if !op.cold {
			h := in.hotOrder[(op.index/2)%len(in.hotOrder)]
			if diff := resultDiff(res, refJSON[h]); diff != "" {
				o.fail("hot request %d differs from the in-process engine: %s", op.index, diff)
			}
			continue
		}
		k := op.index / 2
		p := in.coldProcs[k%len(in.coldProcs)]
		cell := latchchar.TSPCCell(p, latchchar.DefaultTiming())
		cal := latchchar.Calibration{
			TC:        res.Calibration.TCNs * 1e-9,
			CharDelay: res.Calibration.CharDelayPS * 1e-12,
			Tf:        res.Calibration.TfNs * 1e-9,
			R:         res.Calibration.R,
			Rising:    res.Calibration.Rising,
		}
		pts := make([]latchchar.ContourPoint, len(res.Contour))
		for j, q := range res.Contour {
			pts[j] = latchchar.ContourPoint{TauS: q.TauSPs * 1e-12, TauH: q.TauHPs * 1e-12}
		}
		if len(pts) < minPoints {
			o.fail("cold request %d: contour too short", op.index)
			continue
		}
		ev, err := exactAt(cell, cal)
		if err == nil {
			err = checkPoints(ev, pts, 2, hGate, opRNG(cfg.seed, op.index))
		}
		if err != nil {
			o.fail("cold request %d: %v", op.index, err)
		}
	}
	return refs, nil
}

// resultDiff compares a served result with the in-process rendering of the
// same request (contour within the identity-guard tolerances, in the wire's
// picosecond units; equal work counts).
func resultDiff(got, want *serveclient.ResultJSON) string {
	if got.TotalSims != want.TotalSims || len(got.Contour) != len(want.Contour) {
		return fmt.Sprintf("sims %d vs %d, %d vs %d points", got.TotalSims, want.TotalSims, len(got.Contour), len(want.Contour))
	}
	for j, p := range got.Contour {
		q := want.Contour[j]
		if p.Iters != q.Iters || !near(p.TauSPs, q.TauSPs, tauMatch*1e12) || !near(p.TauHPs, q.TauHPs, tauMatch*1e12) || !near(p.H, q.H, hMatch) {
			return fmt.Sprintf("point %d: (%v, %v) vs (%v, %v) ps", j, p.TauSPs, p.TauHPs, q.TauSPs, q.TauHPs)
		}
	}
	return ""
}

// serveLayers reports the serving split of a traced run.
func serveLayers(o *outcome, ops []serveOp, refs []*latchchar.Result) {
	var (
		queue, run, hotVia, direct, overhead []float64
		sumLat, sumQR                        float64
		hits, hotN, coalesced, coldN         int
		counted                              []*serveclient.ResultJSON
	)
	for _, op := range ops {
		st := op.status
		if op.err != nil || st == nil || st.Result == nil {
			continue
		}
		coalesced += st.Coalesced
		if op.cold {
			coldN++
			queue = append(queue, st.QueuedMS)
			run = append(run, st.RunMS)
			sumLat += ms(op.latency)
			sumQR += st.QueuedMS + st.RunMS
			if len(counted) < serveCountOps {
				counted = append(counted, st.Result)
			}
			continue
		}
		hotN++
		if st.Cached {
			hits++
		}
		if op.direct > 0 {
			hotVia = append(hotVia, ms(op.latency))
			direct = append(direct, ms(op.direct))
			// A result-cache hit neither queues nor runs: the whole direct
			// latency is serving overhead.
			overhead = append(overhead, ms(op.direct))
		}
	}
	o.set("jobcore.queue_ms", median(queue), "ms")
	o.set("jobcore.run_ms", median(run), "ms")
	o.set("jobcore.hit_ratio", ratio(float64(hits), float64(hotN)), "ratio")
	o.set("jobcore.coalesced", ratio(float64(coalesced), float64(len(ops))), "count")
	o.set("serve.overhead_ms", median(overhead), "ms")
	o.set("cluster.forward_ms", median(hotVia)-median(direct), "ms")
	coverage(o, "serve", sumLat/float64(coldN), sumQR/float64(coldN))

	// Render cost of the hot results, timed from outside.
	var render []float64
	for k := 0; k < 50; k++ {
		for _, r := range refs {
			t0 := time.Now()
			if _, err := json.Marshal(jobcore.RenderResult("tspc", r)); err != nil {
				o.problem("encoding a result: %v", err)
				return
			}
			render = append(render, ms(time.Since(t0)))
		}
	}
	o.set("jobcore.render_ms", median(render), "ms")

	// Solver work behind the cold ops, from the results they returned: times
	// over every cold op, counts over the count set.
	var wall float64
	for _, op := range ops {
		if op.cold && op.err == nil && op.status != nil && op.status.Result != nil {
			wall += op.status.Result.Stats.WallMS
		}
	}
	o.set("transient.wall_ms", wall/float64(coldN), "ms")
	if len(counted) == 0 {
		return
	}
	var (
		sims int
		w    transient.Stats
	)
	for _, r := range counted {
		sims += r.TotalSims
		s := r.Stats
		w.Add(transient.Stats{
			Steps: s.Steps, NewtonIters: s.NewtonIters, ChordIters: s.ChordIters,
			Factorizations: s.Factorizations, DeviceBypasses: s.DeviceBypasses,
			BlockPeelOffs: s.BlockPeelOffs, BlockSharedSteps: s.BlockSharedSteps, BlockDonorReplays: s.BlockDonorReplays,
		})
	}
	o.set("core.sims", float64(sims)/float64(len(counted)), "count")
	workCounts(o, w, len(counted))
}
