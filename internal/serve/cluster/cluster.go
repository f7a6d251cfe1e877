package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"latchchar/internal/serve"
	"latchchar/internal/serve/jobcore"
	"latchchar/serveclient"
)

// Config configures a Coordinator.
type Config struct {
	// Workers are the worker daemon addresses ("host:port" or full base
	// URLs). Required, at least one.
	Workers []string
	// HealthInterval is the /v1/statusz poll cadence (default 2s).
	HealthInterval time.Duration
	// FailureThreshold is how many consecutive poll failures mark a worker
	// down (default 2). A failed forward demotes immediately.
	FailureThreshold int
	// MaxInFlight bounds concurrently forwarded requests per worker
	// (default 32); excess submissions queue on the semaphore, bounded by
	// the caller's context.
	MaxInFlight int
	// ForwardRetries is the maximum number of distinct workers tried per
	// forward, the ring owner included (default 3).
	ForwardRetries int
	// RetryBackoff is the base sleep before each retry hop, doubling per
	// attempt (default 100ms).
	RetryBackoff time.Duration
	// Replicas is the virtual-node count per worker on the hash ring
	// (default 512). Keyspace share per worker concentrates as
	// 1/sqrt(2·Replicas): 64 vnodes leaves an ~9% share stddev — 60/40
	// splits at two workers are then routine and cap fleet throughput at
	// capacity/max_share — while 512 brings it to ~3%. Ring rebuilds sort
	// members·Replicas entries, so even 512 is microseconds at realistic
	// fleet sizes.
	Replicas int
	// RetryAfter is the backpressure hint on coordinator 503s (default 2s).
	RetryAfter time.Duration
	// MaxJobs bounds retained forwarded-job records (default 4096).
	MaxJobs int
	// Logger receives structured request logs (default slog.Default()).
	Logger *slog.Logger
	// HTTPClient overrides the client used for worker calls (tests).
	HTTPClient *http.Client
}

// Validate checks the numeric knobs; New calls it after defaulting, so only
// explicitly negative/nonsensical values fail.
func (c *Config) Validate() error {
	if len(c.Workers) == 0 {
		return fmt.Errorf("cluster: Config.Workers must name at least one worker")
	}
	if c.FailureThreshold < 1 {
		return fmt.Errorf("cluster: FailureThreshold must be >= 1 (got %d)", c.FailureThreshold)
	}
	if c.MaxInFlight < 1 {
		return fmt.Errorf("cluster: MaxInFlight must be >= 1 (got %d)", c.MaxInFlight)
	}
	if c.ForwardRetries < 1 {
		return fmt.Errorf("cluster: ForwardRetries must be >= 1 (got %d)", c.ForwardRetries)
	}
	if c.Replicas < 1 {
		return fmt.Errorf("cluster: Replicas must be >= 1 (got %d)", c.Replicas)
	}
	if c.MaxJobs < 1 {
		return fmt.Errorf("cluster: MaxJobs must be >= 1 (got %d)", c.MaxJobs)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.FailureThreshold == 0 {
		c.FailureThreshold = 2
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 32
	}
	if c.ForwardRetries == 0 {
		c.ForwardRetries = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.Replicas == 0 {
		c.Replicas = 512
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 2 * time.Second
	}
	if c.MaxJobs == 0 {
		c.MaxJobs = 4096
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// counters are the coordinator-level atomics behind /v1/metrics and
// /v1/statusz; the exposition maps them onto the obs cluster counter
// vocabulary.
type counters struct {
	requests        atomic.Int64
	forwards        atomic.Int64
	forwardRetries  atomic.Int64
	forwardFailures atomic.Int64
	rehashes        atomic.Int64
	streamEvents    atomic.Int64
}

// Coordinator fronts a fleet of worker daemons. Construct with New; it
// implements http.Handler. Stop with Drain and/or Close.
type Coordinator struct {
	cfg     Config
	rt      *serve.Router
	started time.Time
	stop    chan struct{}
	wg      sync.WaitGroup
	met     counters

	mu       sync.Mutex
	draining bool
	workers  map[string]*worker // by address
	ring     *ring
	nextID   uint64
	jobs     map[string]*record
	order    []string
}

// New builds a coordinator and starts its health loop. The initial ring
// holds every configured worker — jobs can be forwarded before the first
// poll round completes; a dead worker costs one retry hop until the poll
// notices it.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	co := &Coordinator{
		cfg:     cfg,
		rt:      serve.NewRouter(cfg.Logger),
		started: time.Now(),
		stop:    make(chan struct{}),
		workers: make(map[string]*worker),
		jobs:    make(map[string]*record),
	}
	addrs := make([]string, 0, len(cfg.Workers))
	for _, a := range cfg.Workers {
		w := newWorker(a, cfg)
		if _, dup := co.workers[w.addr]; dup {
			return nil, fmt.Errorf("cluster: duplicate worker %s", w.addr)
		}
		co.workers[w.addr] = w
		addrs = append(addrs, w.addr)
	}
	co.ring = buildRing(addrs, cfg.Replicas)

	co.rt.Handle("POST /v1/characterize", "/v1/characterize", co.handleCharacterize)
	co.rt.Handle("POST /v1/batch", "/v1/batch", co.handleBatch)
	co.rt.Handle("GET /v1/jobs/{id}", "/v1/jobs/{id}", co.handleJob)
	co.rt.Handle("GET /v1/jobs/{id}/events", "/v1/jobs/{id}/events", co.handleJobEvents)
	co.rt.Handle("GET /v1/healthz", "/v1/healthz", co.handleHealthz)
	co.rt.Handle("GET /v1/metrics", "/v1/metrics", co.handleMetrics)
	co.rt.Handle("GET /v1/statusz", "/v1/statusz", co.handleStatusz)
	co.rt.Redirect("/healthz", "/v1/healthz")
	co.rt.Redirect("/metrics", "/v1/metrics")
	co.rt.Redirect("/statusz", "/v1/statusz")
	co.rt.HandleRaw("GET /debug/pprof/", pprof.Index)

	co.wg.Add(1)
	go co.healthLoop()
	return co, nil
}

// ServeHTTP implements http.Handler.
func (co *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { co.rt.ServeHTTP(w, r) }

// Draining reports whether the coordinator has stopped accepting work.
func (co *Coordinator) Draining() bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.draining
}

// Drain stops accepting new work and waits for in-flight forwards and the
// health loop to wind down, or for ctx to expire. Idempotent. Forwarded
// jobs keep running on their workers either way — the workers drain
// themselves.
func (co *Coordinator) Drain(ctx context.Context) error {
	co.mu.Lock()
	if !co.draining {
		co.draining = true
		close(co.stop)
	}
	co.mu.Unlock()
	done := make(chan struct{})
	go func() {
		co.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close is a drain whose deadline already passed.
func (co *Coordinator) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = co.Drain(ctx)
}

// --- HTTP handlers ---

const maxBodyBytes = 8 << 20

func (co *Coordinator) handleCharacterize(w http.ResponseWriter, r *http.Request) {
	co.met.requests.Add(1)
	if co.Draining() {
		co.rejectDraining(w, r)
		return
	}
	var req serveclient.CharacterizeRequest
	if !co.decode(w, r, &req) {
		return
	}
	// Resolve locally before forwarding: invalid requests fail fast at the
	// edge, and the key must be derived from the resolved cell exactly as
	// the worker derives it.
	cell, _, key, err := jobcore.Resolve(&req)
	if err != nil {
		serve.WriteError(w, r, http.StatusBadRequest, serveclient.CodeInvalidRequest, err.Error())
		return
	}
	_ = cell
	st, addr, err := co.forwardCharacterize(r, &req, key)
	if err != nil {
		co.writeForwardError(w, r, err)
		return
	}
	rec := co.newRecord(ref{addr: addr, remoteID: st.ID})
	code := http.StatusAccepted
	if st.Terminal() || st.Cached {
		code = http.StatusOK
		rec.markFinished()
		if st.State == serveclient.StateFailed {
			code = http.StatusInternalServerError
		}
	} else {
		w.Header().Set("Location", "/v1/jobs/"+rec.id)
	}
	out := *st
	out.ID = rec.id
	co.json(w, code, out)
}

func (co *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	co.met.requests.Add(1)
	if co.Draining() {
		co.rejectDraining(w, r)
		return
	}
	var req serveclient.BatchRequest
	if !co.decode(w, r, &req) {
		return
	}
	_, keys, err := jobcore.ResolveBatch(&req)
	if err != nil {
		serve.WriteError(w, r, http.StatusBadRequest, serveclient.CodeInvalidRequest, err.Error())
		return
	}
	st, refs, err := co.forwardBatch(r, &req, keys)
	if err != nil {
		co.writeForwardError(w, r, err)
		return
	}
	rec := co.newRecord(refs...)
	code := http.StatusAccepted
	if st.Terminal() {
		code = http.StatusOK
		rec.markFinished()
		if st.State == serveclient.StateFailed {
			code = http.StatusInternalServerError
		}
	} else {
		w.Header().Set("Location", "/v1/jobs/"+rec.id)
	}
	st.ID = rec.id
	co.json(w, code, st)
}

func (co *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	rec := co.lookup(r.PathValue("id"))
	if rec == nil {
		serve.WriteError(w, r, http.StatusNotFound, serveclient.CodeNotFound,
			fmt.Sprintf("unknown job %q", r.PathValue("id")))
		return
	}
	st := co.mergedStatus(r.Context(), rec)
	if st.Terminal() {
		rec.markFinished()
	}
	co.json(w, http.StatusOK, st)
}

func (co *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if co.Draining() {
		serve.SetRetryAfter(w, co.cfg.RetryAfter)
		serve.WriteError(w, r, http.StatusServiceUnavailable, serveclient.CodeDraining, "coordinator is draining")
		return
	}
	if co.upWorkers() == 0 {
		serve.SetRetryAfter(w, co.cfg.RetryAfter)
		serve.WriteError(w, r, http.StatusServiceUnavailable, serveclient.CodeUpstreamUnavailable,
			"no workers available")
		return
	}
	co.json(w, http.StatusOK, serveclient.HealthStatus{Status: "ok"})
}

// --- helpers ---

func (co *Coordinator) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		serve.WriteError(w, r, http.StatusBadRequest, serveclient.CodeInvalidRequest,
			fmt.Sprintf("decoding request: %v", err))
		return false
	}
	return true
}

func (co *Coordinator) rejectDraining(w http.ResponseWriter, r *http.Request) {
	serve.SetRetryAfter(w, co.cfg.RetryAfter)
	serve.WriteError(w, r, http.StatusServiceUnavailable, serveclient.CodeDraining, "coordinator is draining")
}

func (co *Coordinator) json(w http.ResponseWriter, code int, v any) {
	if err := serve.WriteJSON(w, code, v); err != nil {
		co.cfg.Logger.Warn("writing response failed", "error", err.Error())
	}
}

func (co *Coordinator) upWorkers() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	n := 0
	for _, w := range co.workers {
		if w.currentState() == serveclient.WorkerUp {
			n++
		}
	}
	return n
}
