package obs

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
)

func TestRecorderRingEviction(t *testing.T) {
	rec := NewRecorder(4)
	for i := 1; i <= 10; i++ {
		rec.Event(&Event{V: SchemaVersion, Kind: KindPoint, TNs: int64(i), Iters: i})
	}
	events, dropped := rec.Snapshot()
	if len(events) != 4 {
		t.Fatalf("snapshot holds %d events, want 4", len(events))
	}
	if dropped != 6 {
		t.Fatalf("dropped = %d, want 6", dropped)
	}
	for i, e := range events {
		if want := int64(7 + i); e.TNs != want {
			t.Fatalf("event %d has t_ns %d, want %d (oldest-first order)", i, e.TNs, want)
		}
	}
	if rec.Len() != 4 {
		t.Fatalf("Len = %d, want 4", rec.Len())
	}
}

func TestRecorderPartialRing(t *testing.T) {
	rec := NewRecorder(16)
	rec.Event(&Event{V: SchemaVersion, Kind: KindRunBegin})
	rec.Event(&Event{V: SchemaVersion, Kind: KindPoint, TNs: 5})
	events, dropped := rec.Snapshot()
	if len(events) != 2 || dropped != 0 {
		t.Fatalf("got %d events, %d dropped; want 2, 0", len(events), dropped)
	}
	if rec.Len() != 2 {
		t.Fatalf("Len = %d, want 2", rec.Len())
	}
}

// TestRecorderRelease: a released recorder frees its ring, drops later
// events without panicking and shows an empty window.
func TestRecorderRelease(t *testing.T) {
	rec := NewRecorder(4)
	rec.Event(&Event{V: SchemaVersion, Kind: KindPoint, TNs: 1})
	rec.Release()
	rec.Event(&Event{V: SchemaVersion, Kind: KindPoint, TNs: 2})
	if rec.buf != nil {
		t.Error("Release kept the ring")
	}
	if events, _ := rec.Snapshot(); len(events) != 0 || rec.Len() != 0 {
		t.Errorf("released recorder holds %d events (Len %d), want none", len(events), rec.Len())
	}
}

// TestRecorderDefaultCapacity fills a recorder built with no capacity past
// DefaultRecorderCapacity: it keeps exactly that many events, the newest,
// and counts the rest as dropped.
func TestRecorderDefaultCapacity(t *testing.T) {
	const extra = 5
	rec := NewRecorder(0)
	for i := 1; i <= DefaultRecorderCapacity+extra; i++ {
		rec.Event(&Event{V: SchemaVersion, Kind: KindPoint, TNs: int64(i)})
	}
	events, dropped := rec.Snapshot()
	if len(events) != DefaultRecorderCapacity || rec.Len() != DefaultRecorderCapacity || dropped != extra {
		t.Fatalf("holds %d events (Len %d), dropped %d; want %d held, %d dropped",
			len(events), rec.Len(), dropped, DefaultRecorderCapacity, extra)
	}
	if events[0].TNs != extra+1 {
		t.Fatalf("oldest event has t_ns %d, want %d", events[0].TNs, extra+1)
	}
}

// TestRecorderGrowsAsItFills: a default-capacity recorder that holds a few
// events allocates a small fraction of its ring, and a recorder's buffer
// never outgrows its capacity.
func TestRecorderGrowsAsItFills(t *testing.T) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rec := NewRecorder(0)
	for i := 0; i < 10; i++ {
		rec.Event(&Event{V: SchemaVersion, Kind: KindPoint, TNs: int64(i)})
	}
	runtime.ReadMemStats(&m1)
	ring := uint64(DefaultRecorderCapacity) * uint64(unsafe.Sizeof(Event{}))
	if got := m1.TotalAlloc - m0.TotalAlloc; got > ring/32 {
		t.Errorf("a recorder holding 10 events allocated %d bytes, want at most %d (1/32 of its %d-byte ring)", got, ring/32, ring)
	}
	for _, capacity := range []int{5, 100, DefaultRecorderCapacity} {
		rec := NewRecorder(capacity)
		for i := 0; i < 2*capacity; i++ {
			rec.Event(&Event{V: SchemaVersion, Kind: KindPoint})
			if cap(rec.buf) > capacity {
				t.Fatalf("capacity %d: the ring grew to %d events", capacity, cap(rec.buf))
			}
		}
	}
}

// TestRecorderWindowAtTheBoundaries fills recorders of several capacities —
// below, at and above the ring's first allocation — with 1, cap−1, cap,
// cap+1 and 3·cap events: each holds the newest min(n, cap) in emission
// order and counts the rest as dropped, and after Release holds none and
// drops later events.
func TestRecorderWindowAtTheBoundaries(t *testing.T) {
	for _, capacity := range []int{5, 100, DefaultRecorderCapacity} {
		for _, n := range []int{1, capacity - 1, capacity, capacity + 1, 3 * capacity} {
			rec := NewRecorder(capacity)
			for i := 1; i <= n; i++ {
				rec.Event(&Event{V: SchemaVersion, Kind: KindPoint, TNs: int64(i)})
			}
			held := min(n, capacity)
			events, dropped := rec.Snapshot()
			if len(events) != held || rec.Len() != held || dropped != int64(n-held) {
				t.Fatalf("capacity %d, %d events: holds %d (Len %d), dropped %d; want %d, dropped %d",
					capacity, n, len(events), rec.Len(), dropped, held, n-held)
			}
			for i, e := range events {
				if want := int64(n - held + 1 + i); e.TNs != want {
					t.Fatalf("capacity %d, %d events: event %d has t_ns %d, want %d", capacity, n, i, e.TNs, want)
				}
			}
			rec.Release()
			rec.Event(&Event{V: SchemaVersion, Kind: KindPoint, TNs: int64(n + 1)})
			if events, d := rec.Snapshot(); len(events) != 0 || rec.Len() != 0 || d != dropped {
				t.Fatalf("capacity %d, %d events: released recorder holds %d (Len %d), dropped %d; want none, dropped %d",
					capacity, n, len(events), rec.Len(), d, dropped)
			}
		}
	}
}

// TestRecorderDumpValidates drives a real run through a recorder small
// enough to evict the early events — the shape of a killed job — and checks
// the dump round-trips through ReadJSONL and satisfies ValidateDump with the
// correlation ID on every recorded event and the synthesized error ring at
// the tail.
func TestRecorderDumpValidates(t *testing.T) {
	now := time.Unix(0, 0)
	run := New(
		WithClock(func() time.Time { now = now.Add(time.Millisecond); return now }),
		WithCorr("corr-abc123"),
	)
	rec := NewRecorder(8)
	run.AddSink(rec)

	trace := run.StartSpan(SpanTrace)
	for i := 0; i < 12; i++ {
		step := trace.StartSpan(SpanStep)
		step.Point(1e-12*float64(i), 2e-12, i%4+1)
		step.End()
	}
	// The job dies here: trace never ends, run never closes.

	var buf bytes.Buffer
	errEv := &Event{
		Op:  "trace",
		Msg: "corrector diverged at step 12",
		Iterates: []Iterate{
			{TauS: 1.1e-11, TauH: 2.0e-12, H: 1e-12},
			{TauS: 1.2e-11, TauH: 2.1e-12, H: 5e-13},
		},
		StepLens: []float64{1e-12, 5e-13, 2.5e-13},
	}
	if err := rec.WriteDump(&buf, DumpMeta{
		Corr: "corr-abc123", Job: "job-7", Reason: "convergence",
		Err: "corrector diverged at step 12",
	}, errEv); err != nil {
		t.Fatalf("WriteDump: %v", err)
	}

	events, err := ReadJSONL(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("dump does not parse as JSONL: %v", err)
	}
	if err := ValidateDump(events); err != nil {
		t.Fatalf("dump fails ValidateDump: %v", err)
	}
	// Strict Validate must reject it (evicted span begins) — that's the
	// reason ValidateDump exists; if this starts passing, the ring was big
	// enough and the test lost its point.
	if err := Validate(events); err == nil {
		t.Fatal("truncated dump unexpectedly passes strict Validate")
	}

	head := events[0]
	if head.Kind != KindDumpMeta || head.Job != "job-7" || head.Reason != "convergence" {
		t.Fatalf("bad dump header: %+v", head)
	}
	if head.Dropped == 0 {
		t.Fatal("header reports no evictions; ring should have wrapped")
	}
	for i, e := range events {
		if e.Corr != "corr-abc123" {
			t.Fatalf("event %d (%s) has corr %q, want corr-abc123", i, e.Kind, e.Corr)
		}
	}
	tail := events[len(events)-1]
	if tail.Kind != KindError || tail.Op != "trace" {
		t.Fatalf("dump tail is %+v, want error event for op trace", tail)
	}
	if len(tail.Iterates) != 2 || len(tail.StepLens) != 3 {
		t.Fatalf("error event lost the iterate ring: %+v", tail)
	}
}

func TestValidateDumpRejects(t *testing.T) {
	meta := Event{V: SchemaVersion, Kind: KindDumpMeta}
	cases := []struct {
		name   string
		events []Event
		want   string
	}{
		{"empty", nil, "empty dump"},
		{"no header", []Event{{V: SchemaVersion, Kind: KindPoint}}, "does not start with"},
		{"bad version", []Event{meta, {V: 99, Kind: KindPoint}}, "schema version"},
		{"unknown kind", []Event{meta, {V: SchemaVersion, Kind: "bogus"}}, "unknown event kind"},
		{"time travel", []Event{meta,
			{V: SchemaVersion, Kind: KindPoint, TNs: 10},
			{V: SchemaVersion, Kind: KindPoint, TNs: 5}}, "precedes"},
		{"dup span begin", []Event{meta,
			{V: SchemaVersion, Kind: KindSpanBegin, Name: SpanStep, Span: 3},
			{V: SchemaVersion, Kind: KindSpanBegin, Name: SpanStep, Span: 3}}, "duplicate span id"},
	}
	for _, tc := range cases {
		err := ValidateDump(tc.events)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
	// Orphan span_end and open spans are legal in a dump.
	ok := []Event{meta,
		{V: SchemaVersion, Kind: KindSpanEnd, Name: SpanStep, Span: 99, TNs: 1},
		{V: SchemaVersion, Kind: KindSpanBegin, Name: SpanTrace, Span: 100, TNs: 2},
	}
	if err := ValidateDump(ok); err != nil {
		t.Errorf("truncated-but-well-formed dump rejected: %v", err)
	}
}

func TestRuntimeSampleEmission(t *testing.T) {
	run := New(WithCorr("rt-corr"))
	var got []Event
	cancel := run.Subscribe(func(e Event) {
		if e.Kind == KindRuntime {
			got = append(got, e)
		}
	})
	defer cancel()
	st := ReadRuntimeStats()
	if st.Goroutines <= 0 {
		t.Fatalf("ReadRuntimeStats reports %d goroutines", st.Goroutines)
	}
	if st.HeapBytes == 0 {
		t.Fatal("ReadRuntimeStats reports zero heap")
	}
	run.Runtime(st)
	if len(got) != 1 {
		t.Fatalf("saw %d runtime events, want 1", len(got))
	}
	if got[0].Goroutines != st.Goroutines || got[0].HeapBytes != st.HeapBytes {
		t.Fatalf("runtime event %+v does not match sample %+v", got[0], st)
	}
	if got[0].Corr != "rt-corr" {
		t.Fatalf("runtime event corr = %q, want rt-corr", got[0].Corr)
	}
	if n := run.Counter(CtrRuntimeSamples); n != 1 {
		t.Fatalf("runtime_samples counter = %d, want 1", n)
	}
}
