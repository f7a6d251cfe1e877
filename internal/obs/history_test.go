package obs

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// sameEvents compares two event slices field for field, floats by their
// bits (a NaN τ must come back as the same NaN).
func sameEvents(t *testing.T, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("history returned %d events, %d were appended", len(got), len(want))
	}
	for i := range want {
		a, b := got[i], want[i]
		if math.Float64bits(a.TauS) != math.Float64bits(b.TauS) || math.Float64bits(a.TauH) != math.Float64bits(b.TauH) {
			t.Fatalf("event %d: τ (%v, %v), appended (%v, %v)", i, a.TauS, a.TauH, b.TauS, b.TauH)
		}
		a.TauS, a.TauH, b.TauS, b.TauH = 0, 0, 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("event %d = %+v, appended %+v", i, got[i], want[i])
		}
	}
}

// TestHistoryRoundTrip appends every kind of event a served job captures —
// a real run's spans, points, progress, logs, runtime samples and run_end
// counters, plus the run_begin, error and dump_meta events sinks and dumps
// carry — then more distinct span names than the intern table holds, and
// checks that Events returns each in order, equal to what was appended,
// before and after Clip.
func TestHistoryRoundTrip(t *testing.T) {
	var h History
	var want []Event
	add := func(e Event) {
		h.Append(&e)
		want = append(want, e)
	}
	add(Event{V: SchemaVersion, Kind: KindRunBegin, Corr: "corr-1"})
	run := New(WithClock(fakeClock(time.Microsecond)), WithCorr("corr-1"),
		WithProgress(func(Progress) {}, time.Nanosecond))
	run.Subscribe(add)
	char := run.StartSpan(SpanCharacterize)
	tr := char.StartSpan(SpanTrace)
	for i := 0; i < 20; i++ {
		step := tr.StartSpan(SpanStep)
		step.StartSpan(SpanTransient).End()
		step.Point(250e-12+float64(i)*1e-12, 400e-12-float64(i)*3e-12, 2+i%3)
		step.End()
		tr.Progress(Progress{Phase: SpanTrace, Done: i + 1, Total: 20, TauS: float64(i), CorrectorIters: 2})
	}
	tr.Logf("traced %d points", 20)
	run.Runtime(RuntimeStats{Goroutines: 9, HeapBytes: 1 << 20, GCPauseNs: 12345, SchedP99Ns: 678})
	run.Count(CtrPoints, 20)
	run.Count(CtrNewtonIters, 4321)
	tr.End()
	char.End()
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	if last := want[len(want)-1]; last.Kind != KindRunEnd || last.Counters[CtrPoints] != 20 {
		t.Fatalf("the run did not end with its counters: %+v", last)
	}
	add(Event{V: SchemaVersion, Kind: KindError, Corr: "corr-1", Op: "trace", Msg: "corrector diverged",
		Iterates: []Iterate{{TauS: 1e-10, TauH: 2e-10, H: 0.4}, {TauS: 1.1e-10, TauH: 2e-10, H: math.NaN()}},
		StepLens: []float64{2e-11, 1e-11, 5e-12}})
	add(Event{V: SchemaVersion, Kind: KindDumpMeta, Corr: "corr-1", Job: "j00000001", Reason: "timeout", Msg: "deadline", Dropped: 17})
	sameEvents(t, h.Events(), want)

	// Spans, points and bare markers are packed; only the events that carry
	// another field are kept whole.
	whole := 0
	for _, e := range want {
		switch e.Kind {
		case KindProgress, KindLog, KindRuntime, KindRunEnd, KindError, KindDumpMeta:
			whole++
		}
	}
	if len(h.whole) != whole {
		t.Errorf("history keeps %d of %d events whole, want %d", len(h.whole), len(want), whole)
	}
	if size := unsafe.Sizeof(histRec{}); size != 64 {
		t.Errorf("a packed record takes %d bytes, want 64", size)
	}

	// Past the intern table's limit, events with a new (kind, name) pair
	// are kept whole; pairs already interned still pack.
	for i := 0; i < 300; i++ {
		name := fmt.Sprintf("span-%d", i)
		add(Event{V: SchemaVersion, TNs: int64(1e6 + 2*i), Kind: KindSpanBegin, Name: name, Span: uint64(1000 + i), Corr: "corr-1"})
		add(Event{V: SchemaVersion, TNs: int64(1e6 + 2*i + 1), Kind: KindSpanEnd, Name: name, Span: uint64(1000 + i), DurNs: 1, Corr: "corr-1"})
	}
	add(Event{V: SchemaVersion, TNs: 2e6, Kind: KindPoint, Span: 7, TauS: 1, TauH: 2, Iters: 3, Corr: "corr-1"})
	if len(h.keys) != wholeKey {
		t.Errorf("intern table holds %d pairs, want it full at %d", len(h.keys), wholeKey)
	}
	if last := h.recs[len(h.recs)-1]; last.key == wholeKey {
		t.Error("an interned point was kept whole once the table was full")
	}

	// Events the stored version, correlation ID or a 32-bit iteration count
	// cannot hold, and an empty but non-nil counter map, come back as they
	// went in.
	add(Event{V: SchemaVersion + 1, Kind: KindPoint, Corr: "corr-1"})
	add(Event{V: SchemaVersion, Kind: KindPoint, Corr: "corr-2"})
	add(Event{V: SchemaVersion, Kind: KindPoint, Iters: math.MaxInt32 + 1, Corr: "corr-1"})
	add(Event{V: SchemaVersion, Kind: KindPoint, Iters: math.MinInt32, Corr: "corr-1"})
	add(Event{V: SchemaVersion, Kind: KindRunEnd, Counters: map[string]int64{}, Corr: "corr-1"})
	if h.Len() != len(want) {
		t.Fatalf("Len = %d, appended %d", h.Len(), len(want))
	}
	sameEvents(t, h.Events(), want)

	h.Clip()
	// A clone keeps only the allocator's size-class rounding.
	if spare := cap(h.recs) - len(h.recs); 8*spare > cap(h.recs) {
		t.Errorf("clipped history keeps %d records in room for %d", len(h.recs), cap(h.recs))
	}
	sameEvents(t, h.Events(), want)

	var empty History
	if got := empty.Events(); len(got) != 0 || empty.Len() != 0 {
		t.Errorf("empty history returned %d events", len(got))
	}
	empty.Clip()
}

// TestHistoryHandlesEveryEventField fails when Event gains a field History
// does not store: for each field of Event it appends a packable event with
// only that field changed, and the event must come back as appended, packed
// or kept whole.
func TestHistoryHandlesEveryEventField(t *testing.T) {
	base := Event{V: SchemaVersion, Kind: KindPoint, Corr: "corr"}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		for _, v := range fieldValues(t, f) {
			h := History{}
			want := []Event{base, base}
			reflect.ValueOf(&want[1]).Elem().Field(i).Set(v)
			for k := range want {
				h.Append(&want[k])
			}
			got := h.Events()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Event.%s = %v: history returned %+v, appended %+v", f.Name, v, got[1], want[1])
			}
		}
	}
}

// fieldValues returns values for f that differ from base's, across the
// ranges a packed record stores differently.
func fieldValues(t *testing.T, f reflect.StructField) []reflect.Value {
	t.Helper()
	val := func(x any) reflect.Value { return reflect.ValueOf(x).Convert(f.Type) }
	switch f.Type.Kind() {
	case reflect.Int, reflect.Int64:
		return []reflect.Value{val(7), val(-3), val(int64(1) << 40)}
	case reflect.Uint64:
		return []reflect.Value{val(uint64(7)), val(uint64(1) << 63)}
	case reflect.Float64:
		return []reflect.Value{val(0.25), val(-1e-12)}
	case reflect.String:
		return []reflect.Value{val("other")}
	case reflect.Slice:
		return []reflect.Value{reflect.MakeSlice(f.Type, 0, 0), reflect.MakeSlice(f.Type, 2, 2)}
	case reflect.Map:
		m := reflect.MakeMap(f.Type)
		empty := reflect.MakeMap(f.Type)
		m.SetMapIndex(reflect.ValueOf("k").Convert(f.Type.Key()), reflect.ValueOf(1).Convert(f.Type.Elem()))
		return []reflect.Value{empty, m}
	}
	t.Fatalf("Event.%s has type %s, which this guard does not fill; extend it and History", f.Name, f.Type)
	return nil
}

// FuzzHistory appends arbitrary events and requires Events to return them
// as appended, in order, before and after Clip.
func FuzzHistory(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x0e, 3, 'a', 0, 0, 0, 0, 0, 0, 0, 1, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{0xff, 4, 'x', 'y', 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Add([]byte("\x10\x01run\x00\x00\x00\x00\x00\x00\x00\x05\x7f\xff\xff\xff\xff\xff\xff\xff\x20\x02\x03abc"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		var h History
		var want []Event
		for len(in) > 0 {
			e := in.event()
			h.Append(&e)
			want = append(want, e)
		}
		if h.Len() != len(want) {
			t.Fatalf("Len = %d, appended %d", h.Len(), len(want))
		}
		sameEvents(t, h.Events(), want)
		h.Clip()
		sameEvents(t, h.Events(), want)
	})
}

// fuzzInput decodes fuzz bytes into events; it reads zeros once exhausted.
type fuzzInput []byte

func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

func (in *fuzzInput) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(in.byte())
	}
	return v
}

func (in *fuzzInput) str() string {
	n := int(in.byte() % 8)
	if n > len(*in) {
		n = len(*in)
	}
	s := string((*in)[:n])
	*in = (*in)[n:]
	return s
}

var fuzzKinds = []string{KindRunBegin, KindSpanBegin, KindSpanEnd, KindPoint, KindProgress,
	KindLog, KindRunEnd, KindRuntime, KindDumpMeta, KindError}

// event reads one event: a flag byte choosing the field groups it sets,
// then the kind, the name, the time and each chosen group's bytes.
func (in *fuzzInput) event() Event {
	flags := in.byte()
	e := Event{V: SchemaVersion, Corr: "corr"}
	if flags&1 != 0 {
		e.V, e.Corr = int(int8(in.byte())), in.str()
	}
	if k := int(in.byte()) % (len(fuzzKinds) + 1); k < len(fuzzKinds) {
		e.Kind = fuzzKinds[k]
	} else {
		e.Kind = in.str()
	}
	e.Name = in.str()
	e.TNs = int64(in.u64())
	if flags&2 != 0 {
		e.Span, e.Parent, e.Track = in.u64(), in.u64(), in.u64()
	}
	if flags&4 != 0 {
		e.DurNs = int64(in.u64())
	}
	if flags&8 != 0 {
		e.TauS, e.TauH = math.Float64frombits(in.u64()), math.Float64frombits(in.u64())
	}
	if flags&16 != 0 {
		e.Iters = int(int64(in.u64()))
	}
	if flags&32 != 0 {
		switch v := in.u64(); v % 13 {
		case 0:
			e.Done, e.Total, e.ETANs, e.Phase = int(v>>8), int(v>>16), int64(v), in.str()
		case 1:
			e.Msg = in.str()
		case 2:
			e.Goroutines = int(v >> 4)
		case 3:
			e.HeapBytes = v
		case 4:
			e.GCPauseNs = int64(v)
		case 5:
			e.SchedP99Ns = int64(v)
		case 6:
			e.Job = in.str()
		case 7:
			e.Reason = in.str()
		case 8:
			e.Dropped = int64(v)
		case 9:
			e.Op = in.str()
		case 10:
			e.Done = int(v)
		case 11:
			e.Total = int(v)
		case 12:
			e.ETANs = int64(v)
		}
	}
	if flags&64 != 0 {
		e.Counters = map[string]int64{}
		for n := in.byte() % 3; n > 0; n-- {
			e.Counters[in.str()] = int64(in.u64())
		}
	}
	if flags&128 != 0 {
		e.Iterates = make([]Iterate, in.byte()%3)
		for i := range e.Iterates {
			e.Iterates[i] = Iterate{TauS: math.Float64frombits(in.u64()), H: float64(in.byte())}
		}
		e.StepLens = make([]float64, in.byte()%3)
		for i := range e.StepLens {
			e.StepLens[i] = math.Float64frombits(in.u64())
		}
	}
	return e
}
