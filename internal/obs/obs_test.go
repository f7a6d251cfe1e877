package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock advances a fixed tick per reading, making event timestamps (and
// therefore golden files) deterministic.
func fakeClock(tick time.Duration) func() time.Time {
	base := time.Unix(0, 0)
	n := 0
	return func() time.Time {
		t := base.Add(time.Duration(n) * tick)
		n++
		return t
	}
}

func TestSpanNestingAndOrdering(t *testing.T) {
	var buf bytes.Buffer
	run := New(WithClock(fakeClock(time.Millisecond)))
	run.AddSink(NewJSONLSink(&buf))

	char := run.StartSpan(SpanCharacterize)
	seed := char.StartSpan(SpanSeed)
	tr := seed.StartSpan(SpanTransient)
	tr.End()
	seed.End()
	trace := char.StartSpan(SpanTrace)
	for i := 0; i < 2; i++ {
		step := trace.StartSpan(SpanStep)
		corr := step.StartSpan(SpanCorrector)
		sim := corr.StartSpan(SpanTransient)
		sim.End()
		corr.End()
		step.End()
	}
	trace.End()
	char.End()
	if err := run.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	events, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if err := Validate(events); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if events[0].Kind != KindRunBegin || events[len(events)-1].Kind != KindRunEnd {
		t.Fatalf("stream not bracketed by run_begin/run_end: %s … %s",
			events[0].Kind, events[len(events)-1].Kind)
	}

	roots, err := SpanTree(events)
	if err != nil {
		t.Fatalf("SpanTree: %v", err)
	}
	if len(roots) != 1 || roots[0].Name != SpanCharacterize {
		t.Fatalf("want one %q root, got %+v", SpanCharacterize, roots)
	}
	// characterize > [seed > transient, trace > 2×(step > corrector > transient)]
	var path []string
	roots[0].Walk(func(n *SpanNode) { path = append(path, n.Name) })
	want := []string{
		SpanCharacterize,
		SpanSeed, SpanTransient,
		SpanTrace,
		SpanStep, SpanCorrector, SpanTransient,
		SpanStep, SpanCorrector, SpanTransient,
	}
	if strings.Join(path, ">") != strings.Join(want, ">") {
		t.Fatalf("span tree walk\n got %v\nwant %v", path, want)
	}
	// Every span must have a strictly positive duration under the fake
	// clock (each reading advances 1 ms).
	roots[0].Walk(func(n *SpanNode) {
		if n.DurNs <= 0 {
			t.Errorf("span %s (id %d) has non-positive duration %d", n.Name, n.ID, n.DurNs)
		}
	})
}

func TestSummaryAggregation(t *testing.T) {
	run := New(WithClock(fakeClock(time.Millisecond)))
	for i := 0; i < 3; i++ {
		sp := run.StartSpan(SpanTransient)
		sp.Count(CtrTransients, 1)
		sp.End()
	}
	run.Count(CtrLUFactor, 2)
	run.Count(CtrLURefactor, 18)
	run.Observe(HistCorrectorIters, 2)
	run.Observe(HistCorrectorIters, 3)
	run.Observe(HistCorrectorIters, 2)

	sum := run.Summary()
	if got := sum.Phase(SpanTransient); got.Count != 3 || got.Total <= 0 {
		t.Fatalf("transient phase stat = %+v", got)
	}
	if sum.Counters[CtrTransients] != 3 {
		t.Fatalf("transients counter = %d, want 3", sum.Counters[CtrTransients])
	}
	if len(sum.Hists) != 1 {
		t.Fatalf("want 1 histogram, got %d", len(sum.Hists))
	}
	h := sum.Hists[0].Hist
	if h.Count != 3 || h.Median() != 2 || h.Max != 3 {
		t.Fatalf("corrector histogram = %+v", h)
	}

	var text bytes.Buffer
	if err := WriteSummary(&text, &sum); err != nil {
		t.Fatalf("WriteSummary: %v", err)
	}
	for _, want := range []string{"transients: 3", "LU: 20 factorizations", "90.0% reused", HistCorrectorIters} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("summary text missing %q:\n%s", want, text.String())
		}
	}
}

func TestNilRunIsSafeAndFree(t *testing.T) {
	var run *Run
	if run.Enabled() {
		t.Fatal("nil run reports Enabled")
	}
	// The full hot-path surface on a nil run must not allocate.
	allocs := testing.AllocsPerRun(200, func() {
		sp := run.StartSpan(SpanTransient)
		sp.Count(CtrSteps, 1)
		sp.Observe(HistNewtonIters, 3)
		sp.Point(1e-12, 2e-12, 2)
		sp.Progress(Progress{Done: 1, Total: 2})
		sp.End()
		var h Hist
		h.Observe(3, 1)
		sp.Merge(HistNewtonIters, &h)
		// Flight-recorder-era surface: with the recorder compiled in but
		// the run disabled, correlation and runtime sampling stay free.
		if run.CorrID() != "" {
			panic("nil run has a correlation ID")
		}
		run.Runtime(RuntimeStats{Goroutines: 1})
	})
	if allocs != 0 {
		t.Fatalf("nil-run hot path allocates %v times per op, want 0", allocs)
	}
	if err := run.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	if run.Summary().Counters != nil {
		t.Fatal("nil run summary should be zero value")
	}
}

func TestCounterConcurrency(t *testing.T) {
	run := New()
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := run.StartSpan(SpanCorner)
			for i := 0; i < each; i++ {
				sp.Count(CtrTransients, 1)
				sp.Observe(HistCorrectorIters, i%5+1)
			}
			sp.End()
		}()
	}
	wg.Wait()
	if got := run.Counter(CtrTransients); got != workers*each {
		t.Fatalf("counter = %d, want %d", got, workers*each)
	}
	sum := run.Summary()
	if got := sum.Phase(SpanCorner).Count; got != workers {
		t.Fatalf("corner span count = %d, want %d", got, workers)
	}
	if got := sum.Hists[0].Hist.Count; got != workers*each {
		t.Fatalf("histogram count = %d, want %d", got, workers*each)
	}
}

func TestProgressCadence(t *testing.T) {
	var reports []Progress
	clock := fakeClock(10 * time.Millisecond) // each reading advances 10 ms
	run := New(
		WithClock(clock),
		WithProgress(func(p Progress) { reports = append(reports, p) }, 50*time.Millisecond),
	)
	// 20 reports, clock advancing 10 ms per call: the limiter must thin
	// them to roughly one per 50 ms, and the final (Done == Total) report
	// must always pass.
	for i := 1; i <= 20; i++ {
		run.Progress(Progress{Phase: SpanTrace, Done: i, Total: 20})
	}
	if len(reports) == 0 {
		t.Fatal("no progress reports delivered")
	}
	if len(reports) >= 20 {
		t.Fatalf("rate limiter passed all %d reports", len(reports))
	}
	last := reports[len(reports)-1]
	if last.Done != 20 {
		t.Fatalf("final report Done = %d, want 20 (completion must never be dropped)", last.Done)
	}
	for _, p := range reports[:len(reports)-1] {
		if p.ETA <= 0 {
			t.Errorf("mid-run report %+v lacks an ETA", p)
		}
	}
	// Reports are rate-limited pairwise at least the interval apart.
	for i := 1; i < len(reports)-1; i++ {
		if d := reports[i].Elapsed - reports[i-1].Elapsed; d < 50*time.Millisecond {
			t.Errorf("reports %d and %d only %v apart", i-1, i, d)
		}
	}
}

func TestValidateCatchesCorruptStreams(t *testing.T) {
	mk := func(mut func([]Event) []Event) error {
		run := New(WithClock(fakeClock(time.Millisecond)))
		var buf bytes.Buffer
		run.AddSink(NewJSONLSink(&buf))
		sp := run.StartSpan(SpanTrace)
		sp.End()
		run.Close()
		events, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("ReadJSONL: %v", err)
		}
		return Validate(mut(events))
	}
	if err := mk(func(e []Event) []Event { return e }); err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
	cases := map[string]func([]Event) []Event{
		"bad version":    func(e []Event) []Event { e[1].V = 99; return e },
		"unknown kind":   func(e []Event) []Event { e[1].Kind = "zorp"; return e },
		"unended span":   func(e []Event) []Event { return e[:2] },
		"orphan end":     func(e []Event) []Event { return append(e[:1], e[2:]...) },
		"time goes back": func(e []Event) []Event { e[2].TNs = -5; return e },
	}
	for name, mut := range cases {
		if err := mk(mut); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

func TestHistOverflowAndMerge(t *testing.T) {
	var a, b Hist
	a.Observe(1, 3)
	a.Observe(40, 1) // overflow bucket
	b.Observe(2, 2)
	a.merge(&b)
	s := a.snapshot()
	if s.Count != 6 || s.Min != 1 || s.Max != 40 {
		t.Fatalf("merged snapshot = %+v", s)
	}
	if s.Buckets[histBuckets] != 1 {
		t.Fatalf("overflow bucket = %d, want 1", s.Buckets[histBuckets])
	}
	if !strings.Contains(s.String(), ">16:1") {
		t.Fatalf("overflow not rendered: %s", s.String())
	}
}

func TestSubscribeReceivesAndCancels(t *testing.T) {
	run := New(WithClock(fakeClock(time.Millisecond)))
	var mu sync.Mutex
	var got []Event
	cancel := run.Subscribe(func(e Event) {
		mu.Lock()
		got = append(got, e)
		mu.Unlock()
	})

	sp := run.StartSpan(SpanCharacterize)
	sp.End()
	mu.Lock()
	n := len(got)
	mu.Unlock()
	if n != 2 {
		t.Fatalf("subscriber saw %d events, want span begin+end", n)
	}
	if got[0].Kind != KindSpanBegin || got[1].Kind != KindSpanEnd {
		t.Fatalf("kinds = %s, %s", got[0].Kind, got[1].Kind)
	}

	// After cancel, further events are not delivered.
	cancel()
	sp2 := run.StartSpan(SpanTrace)
	sp2.End()
	mu.Lock()
	after := len(got)
	mu.Unlock()
	if after != n {
		t.Errorf("canceled subscriber still receives events: %d -> %d", n, after)
	}

	// A second subscriber sees the run_end emitted by Close.
	var last Event
	run.Subscribe(func(e Event) { last = e })
	if err := run.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if last.Kind != KindRunEnd {
		t.Errorf("final event kind = %q, want run_end", last.Kind)
	}
}

func TestSubscribeNilRun(t *testing.T) {
	var run *Run
	cancel := run.Subscribe(func(Event) { t.Error("nil run delivered an event") })
	cancel() // must not panic
	run.StartSpan(SpanTrace).End()
}

// TestConcurrentSpansKeepTimestampOrder starts and ends spans from many
// goroutines on one run: every event must reach the sink in timestamp order,
// so the stream validates. That holds only if each event's clock reading and
// its delivery happen under the same lock.
func TestConcurrentSpansKeepTimestampOrder(t *testing.T) {
	const (
		workers = 8
		pairs   = 2000
	)
	var buf bytes.Buffer
	run := New()
	run.AddSink(NewJSONLSink(&buf))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < pairs; i++ {
				run.StartSpan(SpanTransient).End()
			}
		}()
	}
	wg.Wait()
	if err := run.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	events, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if want := 2*workers*pairs + 2; len(events) != want {
		t.Fatalf("%d events, want %d", len(events), want)
	}
	if err := Validate(events); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}
