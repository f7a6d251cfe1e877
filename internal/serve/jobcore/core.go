// Package jobcore is the transport-agnostic heart of the characterization
// service: the bounded job queue, singleflight coalescing, the result LRU,
// per-job observability/flight-recorder plumbing and graceful drain. It
// speaks no HTTP — internal/serve (single-node transport) and
// internal/serve/cluster (coordinator) both sit on top of it, so the two
// modes cannot drift apart in job semantics.
package jobcore

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"latchchar"
	"latchchar/internal/obs"
	"latchchar/internal/sched"
)

// Config configures a Core. It is the former serve.Config minus transport
// concerns.
type Config struct {
	// Engine runs the characterizations (required). The core never bypasses
	// it: every job draws a pool worker and shares the calibration LRU.
	Engine *latchchar.Engine
	// QueueDepth bounds accepted-but-unfinished jobs (default 64). A full
	// queue rejects with ReasonQueueFull.
	QueueDepth int
	// Workers bounds concurrently running jobs (default: the engine's
	// parallelism).
	Workers int
	// JobTimeout is the per-job deadline (default 10 min; negative
	// disables). Timed-out jobs return partial contours as canceled.
	JobTimeout time.Duration
	// ResultCacheSize bounds the result LRU in entries (default 128;
	// negative disables). Only fully successful single-job results are
	// cached.
	ResultCacheSize int
	// MaxJobs bounds retained job records (default 1024); the oldest
	// finished records are evicted first.
	MaxJobs int
	// ProgressInterval is the progress-event cadence on job event streams
	// (default 250ms).
	ProgressInterval time.Duration
	// Logger receives structured job-lifecycle logs, every line stamped
	// with the creating request's correlation ID (default slog.Default()).
	Logger *slog.Logger
	// DumpDir, when non-empty, receives flight-recorder post-mortem dumps
	// (flight-<jobid>.jsonl) for jobs that fail, time out or are canceled.
	DumpDir string
	// FlightRecorderSize bounds each job's flight-recorder ring in events
	// (default obs.DefaultRecorderCapacity; negative disables recording).
	FlightRecorderSize int
	// RuntimeSampleInterval is the runtime self-telemetry cadence feeding
	// status snapshots and live job event streams (default 10s; negative
	// disables the sampler).
	RuntimeSampleInterval time.Duration
	// MockJobTime, when positive, replaces every characterization with a
	// synthetic job of that fixed service time: the job sleeps (honoring
	// cancellation) and returns a small canned contour. This exists for
	// load testing the serving and cluster layers — on a box whose cores
	// are saturated by real solver work, horizontal-scaling curves would
	// otherwise measure the CPU, not the service. Never set in production.
	MockJobTime time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = c.Engine.Parallelism()
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 10 * time.Minute
	}
	if c.ResultCacheSize == 0 {
		c.ResultCacheSize = 128
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.ProgressInterval <= 0 {
		c.ProgressInterval = 250 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.FlightRecorderSize == 0 {
		c.FlightRecorderSize = obs.DefaultRecorderCapacity
	}
	if c.RuntimeSampleInterval == 0 {
		c.RuntimeSampleInterval = 10 * time.Second
	}
	return c
}

// RejectReason says why Submit refused a job.
type RejectReason int

const (
	// ReasonQueueFull — the bounded queue is at capacity (transports map
	// this to 429).
	ReasonQueueFull RejectReason = iota
	// ReasonDraining — the core is shutting down (transports map this to
	// 503). Both reasons are backpressure: the reject carries a retry hint.
	ReasonDraining
)

// SubmitError is the typed backpressure rejection.
type SubmitError struct {
	Reason RejectReason
}

func (e *SubmitError) Error() string {
	if e.Reason == ReasonDraining {
		return "server is draining"
	}
	return "job queue is full"
}

// HTTPStatus is the canonical transport mapping of the rejection: 503 for
// draining, 429 for a full queue.
func (e *SubmitError) HTTPStatus() int {
	if e.Reason == ReasonDraining {
		return http.StatusServiceUnavailable
	}
	return http.StatusTooManyRequests
}

// Core owns the job lifecycle. Construct with New; stop with Drain and/or
// Close. The caller owns the engine's lifetime.
type Core struct {
	cfg        Config
	eng        *latchchar.Engine
	base       context.Context
	baseCancel context.CancelFunc
	queue      chan *Job
	wg         sync.WaitGroup
	started    time.Time
	sampStop   chan struct{}

	mu       sync.Mutex
	draining bool
	nextID   uint64
	jobs     map[string]*Job
	order    []string // job ids in creation order, for record eviction
	inflight map[string]*Job
	results  *sched.LRU[string, *Job]

	met Metrics
	agg obsAgg

	rtMu    sync.Mutex
	rtStats obs.RuntimeStats
	rtAt    time.Time
}

// New starts a core: its workers pull jobs from the bounded queue and run
// them on cfg.Engine.
func New(cfg Config) (*Core, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("jobcore: Config.Engine must be set")
	}
	cfg = cfg.withDefaults()
	base, cancel := context.WithCancel(context.Background())
	c := &Core{
		cfg:        cfg,
		eng:        cfg.Engine,
		base:       base,
		baseCancel: cancel,
		queue:      make(chan *Job, cfg.QueueDepth),
		started:    time.Now(),
		sampStop:   make(chan struct{}),
		jobs:       make(map[string]*Job),
		inflight:   make(map[string]*Job),
		results:    sched.NewLRU[string, *Job](max(cfg.ResultCacheSize, 0)),
	}
	c.agg.init()
	c.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go c.worker()
	}
	if cfg.RuntimeSampleInterval > 0 {
		c.sampleRuntime() // status snapshots have a sample from the start
		c.wg.Add(1)
		go c.runtimeSampler()
	}
	return c, nil
}

// Cfg returns the defaulted configuration.
func (c *Core) Cfg() Config { return c.cfg }

// Engine returns the characterization engine the core runs on.
func (c *Core) Engine() *latchchar.Engine { return c.eng }

// Started returns the core's start time (for uptime reporting).
func (c *Core) Started() time.Time { return c.started }

// Drain stops accepting new work and waits for queued and running jobs to
// finish. If ctx expires first, in-flight characterizations are canceled —
// they record partial contours as canceled jobs — and Drain still waits for
// the workers to wind down before returning the context error. Idempotent.
func (c *Core) Drain(ctx context.Context) error {
	c.mu.Lock()
	if !c.draining {
		c.draining = true
		close(c.queue)    // workers finish the buffered jobs, then exit
		close(c.sampStop) // runtime sampler winds down with them
	}
	c.mu.Unlock()
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		c.baseCancel()
		<-done
		return ctx.Err()
	}
}

// Close cancels everything immediately: equivalent to a drain whose
// deadline already passed.
func (c *Core) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = c.Drain(ctx)
}

// Draining reports whether the core has stopped accepting work.
func (c *Core) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// Submit coalesces or enqueues a single-characterization job. The returned
// job is either a cached finished job (cached=true), an in-flight job the
// request attached to, or a freshly queued one.
func (c *Core) Submit(key, corr string, cell *latchchar.Cell, opts latchchar.Options, noCache bool) (j *Job, cached bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		c.met.RejectedDraining.Add(1)
		return nil, false, &SubmitError{Reason: ReasonDraining}
	}
	if !noCache {
		if hit, ok := c.results.Get(key); ok {
			c.met.ResultCacheHits.Add(1)
			return hit, true, nil
		}
	}
	if fl := c.inflight[key]; fl != nil {
		fl.mu.Lock()
		fl.coalesced++
		fl.mu.Unlock()
		c.met.Coalesced.Add(1)
		return fl, false, nil
	}
	j = c.newJobLocked(key, corr)
	j.name, j.cell, j.opts = cell.Name, cell, &opts
	select {
	case c.queue <- j:
	default:
		c.dropJobLocked(j)
		c.met.RejectedFull.Add(1)
		return nil, false, &SubmitError{Reason: ReasonQueueFull}
	}
	c.inflight[key] = j
	return j, false, nil
}

// SubmitMC coalesces or enqueues a variance-aware Monte-Carlo job. It
// shares the coalescing map and result cache with Submit — the MC options
// participate in the key, so an MC request never collides with a plain one.
func (c *Core) SubmitMC(key, corr string, mk func(latchchar.Process) *latchchar.Cell, nominal latchchar.Process, mcOpts latchchar.MCOptions, noCache bool) (j *Job, cached bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		c.met.RejectedDraining.Add(1)
		return nil, false, &SubmitError{Reason: ReasonDraining}
	}
	if !noCache {
		if hit, ok := c.results.Get(key); ok {
			c.met.ResultCacheHits.Add(1)
			return hit, true, nil
		}
	}
	if fl := c.inflight[key]; fl != nil {
		fl.mu.Lock()
		fl.coalesced++
		fl.mu.Unlock()
		c.met.Coalesced.Add(1)
		return fl, false, nil
	}
	j = c.newJobLocked(key, corr)
	j.name = mk(nominal).Name
	j.mc = &mcFlow{mk: mk, nominal: nominal, opts: mcOpts}
	select {
	case c.queue <- j:
	default:
		c.dropJobLocked(j)
		c.met.RejectedFull.Add(1)
		return nil, false, &SubmitError{Reason: ReasonQueueFull}
	}
	c.inflight[key] = j
	return j, false, nil
}

// SubmitBatch enqueues a batch job (no coalescing; warm-start grouping
// happens inside the engine batch).
func (c *Core) SubmitBatch(jobs []latchchar.Job, corr string) (*Job, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		c.met.RejectedDraining.Add(1)
		return nil, &SubmitError{Reason: ReasonDraining}
	}
	j := c.newJobLocked("", corr)
	j.batch = jobs
	select {
	case c.queue <- j:
	default:
		c.dropJobLocked(j)
		c.met.RejectedFull.Add(1)
		return nil, &SubmitError{Reason: ReasonQueueFull}
	}
	return j, nil
}

// newJobLocked creates and registers a job record, evicting the oldest
// finished records past MaxJobs. Callers hold c.mu.
func (c *Core) newJobLocked(key, corr string) *Job {
	c.nextID++
	id := fmt.Sprintf("j%08d", c.nextID)
	j := newJob(id, key, corr, c.cfg.ProgressInterval, c.cfg.FlightRecorderSize)
	c.jobs[id] = j
	c.order = append(c.order, id)
	for len(c.order) > c.cfg.MaxJobs {
		victim := c.jobs[c.order[0]]
		if victim == nil {
			c.order = c.order[1:]
			continue
		}
		select {
		case <-victim.done:
			delete(c.jobs, victim.id)
			c.order = c.order[1:]
		default:
			// Oldest record still live: stop evicting, the window grows
			// temporarily instead of dropping unfinished work.
			return j
		}
	}
	return j
}

func (c *Core) dropJobLocked(j *Job) {
	delete(c.jobs, j.id)
	if len(c.order) > 0 && c.order[len(c.order)-1] == j.id {
		c.order = c.order[:len(c.order)-1]
	}
}

// Lookup returns the job record for id, nil when unknown or evicted.
func (c *Core) Lookup(id string) *Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobs[id]
}

// worker pulls jobs until the queue closes on drain.
func (c *Core) worker() {
	defer c.wg.Done()
	for j := range c.queue {
		c.runJob(j)
	}
}

// runJob executes one job end to end: engine run (or mock), state
// transition, result caching, observability fold, failure dump, and the
// done broadcast.
func (c *Core) runJob(j *Job) {
	ctx := c.base
	if c.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.JobTimeout)
		defer cancel()
	}
	j.setRunning()
	c.cfg.Logger.Info("job started", "corr", j.corr, "job", j.id,
		"batch", j.batch != nil, "queued_ms", DurMS(time.Since(j.created)))
	switch {
	case c.cfg.MockJobTime > 0:
		c.runMock(ctx, j)
	case j.batch != nil:
		batch := slices.Clone(j.batch) // the record keeps the batch, not the run
		for i := range batch {
			batch[i].Opts.Obs = j.run
		}
		j.completeBatch(c.eng.CharacterizeBatch(ctx, batch))
	case j.mc != nil:
		mcOpts := j.mc.opts
		mcOpts.Characterize.Obs = j.run
		mc, err := c.eng.MonteCarloContours(ctx, j.mc.mk, j.mc.nominal, mcOpts)
		j.completeMC(mc, err)
	default:
		opts := *j.opts
		opts.Obs = j.run
		res, err := c.eng.Characterize(ctx, j.cell, opts)
		j.complete(res, err)
	}
	c.mu.Lock()
	if c.inflight[j.key] == j {
		delete(c.inflight, j.key)
	}
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	if j.batch == nil && state == stateDone && j.key != "" {
		c.results.Put(j.key, j)
	}
	c.mu.Unlock()
	switch state {
	case stateDone:
		c.met.JobsDone.Add(1)
	case stateCanceled:
		c.met.JobsCanceled.Add(1)
	default:
		c.met.JobsFailed.Add(1)
	}
	c.agg.fold(j.run.Summary())
	if err := j.run.Close(); err != nil {
		c.cfg.Logger.Warn("closing obs run failed", "corr", j.corr, "job", j.id, "error", err.Error())
	}
	j.mu.Lock()
	jobErr := j.err
	runMS := DurMS(j.finished.Sub(j.started))
	j.mu.Unlock()
	if state == stateDone {
		c.cfg.Logger.Info("job finished", "corr", j.corr, "job", j.id,
			"state", state, "run_ms", runMS)
	} else {
		c.cfg.Logger.Warn("job finished", "corr", j.corr, "job", j.id,
			"state", state, "run_ms", runMS, "error", errString(jobErr))
		if path, err := c.dumpFlight(j, state, jobErr); err != nil {
			c.cfg.Logger.Error("flight dump failed", "corr", j.corr, "job", j.id, "error", err.Error())
		} else if path != "" {
			c.cfg.Logger.Info("flight dump written", "corr", j.corr, "job", j.id, "path", path)
		}
	}
	// The dump was the ring's only reader and the run's summary is folded:
	// a kept record holds neither, nor the spare capacity append doubling
	// left in its replay history, nor the run's inputs.
	if j.rec != nil {
		j.rec.Release()
	}
	j.mu.Lock()
	j.hist.Clip()
	j.run = nil
	j.cell, j.opts, j.mc = nil, nil, nil
	j.mu.Unlock()
	close(j.done)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// dumpFlight writes the job's flight-recorder post-mortem to DumpDir and
// returns the path ("" when dumping is disabled). The dump carries the
// recorded event window plus a structured error event — for convergence
// failures the corrector iterate ring and the step schedule tried.
func (c *Core) dumpFlight(j *Job, state string, jobErr error) (string, error) {
	if c.cfg.DumpDir == "" || j.rec == nil {
		return "", nil
	}
	reason := state
	if state == stateCanceled && errors.Is(jobErr, context.DeadlineExceeded) {
		reason = "timeout"
	}
	if err := os.MkdirAll(c.cfg.DumpDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(c.cfg.DumpDir, "flight-"+j.id+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	meta := obs.DumpMeta{Corr: j.corr, Job: j.id, Reason: reason, Err: errString(jobErr)}
	werr := j.rec.WriteDump(f, meta, latchchar.FlightErrorEvent(jobErr))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return "", werr
	}
	return path, nil
}

// Summary returns the aggregated observability counters and phase stats
// over all finished jobs, for metrics exposition and tests.
func (c *Core) Summary() obs.Summary { return c.agg.summary() }

// Counters returns the core's request/job counters for exposition.
func (c *Core) Counters() *Metrics { return &c.met }

// Snapshot captures the queue/cache state behind /statusz and /metrics.
func (c *Core) Snapshot() Snapshot {
	c.mu.Lock()
	queued := len(c.queue)
	inflight := len(c.inflight)
	draining := c.draining
	c.mu.Unlock()
	hits, misses := c.eng.CacheStats()
	return Snapshot{
		QueueDepth:             queued,
		QueueCap:               c.cfg.QueueDepth,
		InflightKeys:           inflight,
		Workers:                c.cfg.Workers,
		Draining:               draining,
		CalibrationCacheHits:   hits,
		CalibrationCacheMisses: misses,
	}
}

// Snapshot is a point-in-time view of the core's queue and cache state.
type Snapshot struct {
	QueueDepth             int
	QueueCap               int
	InflightKeys           int
	Workers                int
	Draining               bool
	CalibrationCacheHits   int64
	CalibrationCacheMisses int64
}

// RuntimeStats returns the latest runtime self-telemetry sample and when it
// was taken (zero time when the sampler is disabled or hasn't fired).
func (c *Core) RuntimeStats() (obs.RuntimeStats, time.Time) {
	c.rtMu.Lock()
	defer c.rtMu.Unlock()
	return c.rtStats, c.rtAt
}

// runtimeSampler periodically reads the Go runtime and (a) publishes the
// sample for status snapshots, (b) emits a runtime event into every live
// job's obs stream so a streamed trace shows the saturation it ran under.
// Exits when Drain closes sampStop.
func (c *Core) runtimeSampler() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.RuntimeSampleInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.sampleRuntime()
		case <-c.sampStop:
			return
		}
	}
}

func (c *Core) sampleRuntime() {
	st := obs.ReadRuntimeStats()
	c.rtMu.Lock()
	c.rtStats, c.rtAt = st, time.Now()
	c.rtMu.Unlock()
	c.mu.Lock()
	runs := make([]*obs.Run, 0, len(c.inflight))
	for _, j := range c.inflight {
		runs = append(runs, j.run)
	}
	c.mu.Unlock()
	// Outside c.mu: Run.Runtime takes the collector lock, which event
	// subscribers (Job.capture) run under.
	for _, r := range runs {
		r.Runtime(st)
	}
}
