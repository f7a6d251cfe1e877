// Package obs is the runtime observability layer of the characterization
// engine: hierarchical spans, monotonic counters, iteration histograms and a
// structured event stream with pluggable sinks (JSON lines, Chrome
// trace-event format, human text summary), plus rate-limited live progress
// reporting.
//
// The central type is *Run, a context-like handle threaded through the
// solver stack. A nil *Run disables everything: every method is nil-safe and
// allocation-free, so the hot paths (the transient inner loop, the
// per-transient bookkeeping in stf) pay only a pointer test when
// observability is off. Deriving a child span returns a new *Run sharing the
// same underlying collector, so each layer sees its own span as the parent
// of whatever it calls next:
//
//	run := obs.New()
//	run.AddSink(obs.NewJSONLSink(w))
//	char := run.StartSpan(obs.SpanCharacterize)
//	...
//	char.End()
//	run.Close()
//
// Counters are safe for concurrent use (corner sweeps share one Run across
// goroutines); span begin/end events are serialized by the collector.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names used by the characterization stack (the span taxonomy of
// DESIGN.md §7). Sinks and tests match on these.
const (
	SpanCharacterize = "characterize"
	SpanCalibrate    = "calibrate"
	SpanSeed         = "seed"
	SpanTrace        = "trace"
	SpanStep         = "step"
	SpanCorrector    = "corrector"
	SpanTransient    = "transient"
	SpanResample     = "resample"
	SpanSurface      = "surface"
	SpanIndependent  = "independent"
	SpanCorner       = "corner"
	SpanMCSample     = "mc-sample"
	SpanMCNominal    = "mc-nominal"
	SpanBatch        = "batch"
	SpanBatchJob     = "batch-job"
	SpanJob          = "job"
)

// Counter names.
const (
	CtrTransients     = "transients"
	CtrTransientsGrad = "transients_grad"
	CtrSteps          = "integrator_steps"
	CtrNewtonIters    = "newton_iters"
	CtrLUFactor       = "lu_factorizations"
	CtrLURefactor     = "lu_refactorizations"
	CtrSensSolves     = "sens_solves"
	// CtrResumedSteps counts the lane-steps transients took from the
	// evaluator's rest trail instead of integrating them
	// (transient.Stats.ResumedSteps).
	CtrResumedSteps   = "resumed_steps"
	CtrPoints         = "contour_points"
	CtrStepRejects    = "step_rejects"
	CtrWarmSeeds      = "warm_seeds"
	CtrCalReused      = "calibrations_reused"
	CtrRuntimeSamples = "runtime_samples"
	// Block-transient kernel (internal/transient.BlockEngine).
	CtrBlockRuns        = "block_runs"
	CtrBlockPeelOffs    = "block_peel_offs"
	CtrBlockSharedSteps = "block_shared_steps"
	// Variance-aware Monte-Carlo (statistical contours): nominal-seeded
	// probe solves, transients avoided vs naive re-characterization, and
	// samples folded into the control-variate delta estimator.
	CtrMCWarmSeeds = "mc_warm_seeds"
	CtrMCSimsSaved = "mc_sims_saved"
	CtrMCCVApplied = "mc_cv_applied"
	// Cluster coordinator (internal/serve/cluster). Workers never emit
	// these; the coordinator folds them into its own exposition under the
	// same vocabulary so fleet dashboards sum one stable counter set.
	CtrClusterForwards        = "cluster_forwards"
	CtrClusterForwardRetries  = "cluster_forward_retries"
	CtrClusterForwardFailures = "cluster_forward_failures"
	CtrClusterRehashes        = "cluster_rehashes"
	CtrClusterStreamEvents    = "cluster_stream_events"
)

// Histogram names.
const (
	HistNewtonIters    = "newton_iters_per_step"
	HistCorrectorIters = "corrector_iters"
	// HistBlockSize records the lane count of each block-transient run.
	HistBlockSize = "block_size"
)

// Option configures a Run at construction.
type Option func(*collector)

// WithClock substitutes the time source (tests use a fake clock so golden
// files are deterministic). now must be monotonically non-decreasing.
func WithClock(now func() time.Time) Option {
	return func(c *collector) { c.clock = now }
}

// WithProgress installs a live progress callback invoked at most once per
// interval (plus always on completion, Done ≥ Total). A non-positive
// interval defaults to 250 ms.
func WithProgress(fn func(Progress), interval time.Duration) Option {
	return func(c *collector) {
		if interval <= 0 {
			interval = 250 * time.Millisecond
		}
		c.progressFn = fn
		c.progressEvery = interval
	}
}

// WithProfileLabels enables runtime/pprof goroutine labels around the
// transient and LU phases, so standard Go CPU profiles attribute time to
// characterization phases.
func WithProfileLabels() Option {
	return func(c *collector) { c.profileLabels = true }
}

// WithCorr sets the run's correlation ID. Every emitted event is stamped
// with it, so NDJSON streams, flight-recorder dumps and daemon log lines of
// one request all join on the same identifier.
func WithCorr(id string) Option {
	return func(c *collector) { c.corr = id }
}

// Run is one observed characterization run, or a span within it. The zero
// value is not usable; construct with New. A nil *Run is valid everywhere
// and disables all collection.
type Run struct {
	c    *collector
	span *spanInfo // nil for the root handle
}

type spanInfo struct {
	id     uint64
	parent uint64
	track  uint64
	name   string
	start  time.Duration // since run start
}

type phaseAgg struct {
	count int64
	total time.Duration
}

type collector struct {
	clock         func() time.Time
	start         time.Time
	nextID        atomic.Uint64
	profileLabels bool
	corr          string

	progressFn    func(Progress)
	progressEvery time.Duration
	lastProg      atomic.Int64 // ns since start of last report

	cmu      sync.RWMutex
	counters map[string]*atomic.Int64

	mu        sync.Mutex
	closed    bool
	sinks     []Sink
	nextSubID uint64
	subs      map[uint64]func(Event)
	phases    map[string]*phaseAgg
	hists     map[string]*Hist
}

// New creates an enabled observability run.
func New(opts ...Option) *Run {
	c := &collector{
		clock:    time.Now,
		counters: make(map[string]*atomic.Int64),
		phases:   make(map[string]*phaseAgg),
		hists:    make(map[string]*Hist),
	}
	for _, o := range opts {
		o(c)
	}
	c.start = c.clock()
	r := &Run{c: c}
	return r
}

// Enabled reports whether the run collects anything. Callers use it to skip
// argument marshalling (e.g. Logf formatting) on disabled runs.
func (r *Run) Enabled() bool { return r != nil }

// ProfileLabelsEnabled reports whether pprof phase labels were requested.
func (r *Run) ProfileLabelsEnabled() bool {
	return r != nil && r.c.profileLabels
}

// CorrID returns the run's correlation ID ("" when unset or the run is nil).
func (r *Run) CorrID() string {
	if r == nil {
		return ""
	}
	return r.c.corr
}

// AddSink attaches a sink. Its first event is the run's run_begin marker;
// sinks added after events have been emitted then only see subsequent
// events.
func (r *Run) AddSink(s Sink) {
	if r == nil || s == nil {
		return
	}
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	s.Event(&Event{V: SchemaVersion, Kind: KindRunBegin, Corr: r.c.corr})
	r.c.sinks = append(r.c.sinks, s)
}

func (c *collector) since() time.Duration { return c.clock().Sub(c.start) }

// emit stamps e with the run clock, serializes it to every sink and
// subscriber, and returns the stamp. The caller fills everything but V,
// Corr and TNs. The stamp is read under c.mu, the lock that orders the
// stream, so concurrent emitters can never deliver a timestamp older than
// the event before it.
func (c *collector) emit(e *Event) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.since()
	c.send(now, e)
	return now
}

// send stamps e with now and delivers it; the caller holds c.mu.
func (c *collector) send(now time.Duration, e *Event) {
	e.V = SchemaVersion
	e.Corr = c.corr
	e.TNs = int64(now)
	if c.closed {
		return
	}
	for _, s := range c.sinks {
		s.Event(e)
	}
	for _, fn := range c.subs {
		fn(*e)
	}
}

// Subscribe registers fn to receive the run_begin marker and then a copy of
// every subsequent event, and returns a cancel function that unregisters
// it. Unlike AddSink, a subscription can be dropped while the run is live —
// the hook the serving layer's NDJSON event streaming attaches and detaches
// per HTTP client. fn is invoked under the collector lock and must not
// block or call back into the run; hand the event off to a buffered channel
// and drop on overflow instead of stalling the solvers.
func (r *Run) Subscribe(fn func(Event)) (cancel func()) {
	if r == nil || fn == nil {
		return func() {}
	}
	c := r.c
	c.mu.Lock()
	defer c.mu.Unlock()
	fn(Event{V: SchemaVersion, Kind: KindRunBegin, Corr: c.corr})
	c.nextSubID++
	id := c.nextSubID
	if c.subs == nil {
		c.subs = make(map[uint64]func(Event))
	}
	c.subs[id] = fn
	return func() {
		c.mu.Lock()
		delete(c.subs, id)
		c.mu.Unlock()
	}
}

// StartSpan opens a child span and returns a derived handle whose subsequent
// spans nest under it. End the returned handle exactly once.
func (r *Run) StartSpan(name string) *Run {
	if r == nil {
		return nil
	}
	id := r.c.nextID.Add(1)
	sp := &spanInfo{id: id, name: name}
	if r.span != nil {
		sp.parent = r.span.id
		sp.track = r.span.track
	} else {
		// Top-level spans each get their own track so concurrent corners
		// render as parallel rows in Chrome trace viewers.
		sp.track = id
	}
	sp.start = r.c.emit(&Event{
		Kind: KindSpanBegin,
		Name: name, Span: id, Parent: sp.parent, Track: sp.track,
	})
	return &Run{c: r.c, span: sp}
}

// End closes the span this handle represents. A root handle (from New) or a
// nil Run ignores End.
func (r *Run) End() {
	if r == nil || r.span == nil {
		return
	}
	sp, c := r.span, r.c
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.since()
	dur := now - sp.start
	agg := c.phases[sp.name]
	if agg == nil {
		agg = &phaseAgg{}
		c.phases[sp.name] = agg
	}
	agg.count++
	agg.total += dur
	c.send(now, &Event{
		Kind: KindSpanEnd,
		Name: sp.name, Span: sp.id, Parent: sp.parent, Track: sp.track,
		DurNs: int64(dur),
	})
}

// Count adds delta to the named monotonic counter. Safe for concurrent use.
func (r *Run) Count(name string, delta int64) {
	if r == nil {
		return
	}
	r.c.counter(name).Add(delta)
}

func (c *collector) counter(name string) *atomic.Int64 {
	c.cmu.RLock()
	ctr := c.counters[name]
	c.cmu.RUnlock()
	if ctr != nil {
		return ctr
	}
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if ctr = c.counters[name]; ctr == nil {
		ctr = &atomic.Int64{}
		c.counters[name] = ctr
	}
	return ctr
}

// Counter returns the current value of a counter (0 if never incremented).
func (r *Run) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.c.cmu.RLock()
	defer r.c.cmu.RUnlock()
	if ctr := r.c.counters[name]; ctr != nil {
		return ctr.Load()
	}
	return 0
}

// Observe records one sample in the named iteration histogram.
func (r *Run) Observe(name string, v int) {
	if r == nil {
		return
	}
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	h := r.c.hists[name]
	if h == nil {
		h = &Hist{}
		r.c.hists[name] = h
	}
	h.observe(v, 1)
}

// Merge folds a locally accumulated histogram into the named histogram in
// one locked operation — the transient engine uses this so the inner loop
// never takes the collector lock.
func (r *Run) Merge(name string, h *Hist) {
	if r == nil || h == nil || h.count == 0 {
		return
	}
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	dst := r.c.hists[name]
	if dst == nil {
		dst = &Hist{}
		r.c.hists[name] = dst
	}
	dst.merge(h)
}

// Point emits one solved contour point to the event stream.
func (r *Run) Point(tauS, tauH float64, iters int) {
	if r == nil {
		return
	}
	var span, parent uint64
	if r.span != nil {
		span, parent = r.span.id, r.span.parent
	}
	r.c.emit(&Event{
		Kind: KindPoint,
		Span: span, Parent: parent,
		TauS: tauS, TauH: tauH, Iters: iters,
	})
}

// Logf emits a free-form log event. Guard call sites on Enabled when the
// arguments are expensive to build.
func (r *Run) Logf(format string, args ...any) {
	if r == nil {
		return
	}
	var span uint64
	if r.span != nil {
		span = r.span.id
	}
	r.c.emit(&Event{
		Kind: KindLog,
		Span: span, Msg: fmt.Sprintf(format, args...),
	})
}

// Elapsed returns the wall-clock time since the run started.
func (r *Run) Elapsed() time.Duration {
	if r == nil {
		return 0
	}
	return r.c.since()
}

// Summary snapshots the aggregated run state: per-phase wall-clock,
// counters and histograms.
func (r *Run) Summary() Summary {
	if r == nil {
		return Summary{}
	}
	c := r.c
	s := Summary{
		Wall:     c.since(),
		Counters: map[string]int64{},
	}
	c.cmu.RLock()
	for name, ctr := range c.counters {
		s.Counters[name] = ctr.Load()
	}
	c.cmu.RUnlock()
	c.mu.Lock()
	for name, agg := range c.phases {
		s.Phases = append(s.Phases, PhaseStat{Name: name, Count: agg.count, Total: agg.total})
	}
	for name, h := range c.hists {
		s.Hists = append(s.Hists, HistStat{Name: name, Hist: h.snapshot()})
	}
	c.mu.Unlock()
	sort.Slice(s.Phases, func(i, j int) bool { return s.Phases[i].Total > s.Phases[j].Total })
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
	return s
}

// Close emits the run_end event (with the final counter values) and closes
// every sink. Further events are dropped. Close is idempotent.
func (r *Run) Close() error {
	if r == nil {
		return nil
	}
	c := r.c
	sum := r.Summary()
	c.emit(&Event{Kind: KindRunEnd, Counters: sum.Counters})
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	sinks := c.sinks
	c.mu.Unlock()
	var firstErr error
	for _, s := range sinks {
		if err := s.Close(&sum); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// PhaseStat is the aggregated wall-clock of one span name.
type PhaseStat struct {
	Name  string
	Count int64
	Total time.Duration
}

// HistStat pairs a histogram name with its snapshot.
type HistStat struct {
	Name string
	Hist HistSnapshot
}

// Summary is an aggregate view of a run.
type Summary struct {
	Wall     time.Duration
	Phases   []PhaseStat
	Counters map[string]int64
	Hists    []HistStat
}

// Phase returns the stats for one span name (zero value if absent).
func (s Summary) Phase(name string) PhaseStat {
	for _, p := range s.Phases {
		if p.Name == name {
			return p
		}
	}
	return PhaseStat{}
}
