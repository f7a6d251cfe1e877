package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Recorder is a flight recorder: a bounded ring buffer over the most recent
// events of a run, attached as an always-on Sink. When the run is healthy it
// costs one struct copy per event; when a job fails, times out, or is
// cancelled, the recorded window is dumped with WriteDump as a JSONL
// post-mortem that ValidateDump / `tracecheck -dump` accepts.
//
// The ring grows as events arrive, doubling up to its capacity, so a run
// that records a few dozen events never allocates the whole ring; once
// full, it allocates no more, and each event evicts the oldest.
//
// Event is invoked under the collector lock (all sinks are), so it never
// blocks and never calls back into the run. Snapshot and WriteDump may be
// called concurrently from the serving layer after the job dies.
type Recorder struct {
	mu      sync.Mutex
	size    int     // capacity in events; 0 once released
	buf     []Event // the window, oldest first until it reaches size
	next    int     // once full: the index of the oldest event, overwritten next
	dropped int64   // events evicted by the wrap
}

// DefaultRecorderCapacity is the ring size used when NewRecorder is given a
// non-positive capacity: enough to hold the tail of a trace (steps,
// correctors, points) without holding a whole surface sweep in memory.
const DefaultRecorderCapacity = 4096

// recorderFirstGrowth is the ring's first allocation in events: a served
// cold request records about 77, which three allocations (32, 64 and 128
// events) hold.
const recorderFirstGrowth = 32

// NewRecorder creates a flight recorder holding the last capacity events.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCapacity
	}
	return &Recorder{size: capacity}
}

// Event records e into the ring, growing it while it is below capacity and
// evicting the oldest event once full. A released recorder drops e.
func (r *Recorder) Event(e *Event) {
	r.mu.Lock()
	switch {
	case r.size == 0: // released
	case len(r.buf) < r.size:
		if len(r.buf) == cap(r.buf) {
			grown := make([]Event, len(r.buf), min(max(2*cap(r.buf), recorderFirstGrowth), r.size))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, *e)
	default:
		r.buf[r.next] = *e
		r.next++
		if r.next == r.size {
			r.next = 0
		}
		r.dropped++
	}
	r.mu.Unlock()
}

// Close satisfies Sink. The ring stays readable after Close so a dump can be
// taken from a run that already ended.
func (r *Recorder) Close(*Summary) error { return nil }

// Release frees the ring once nothing will read it again: the serving layer
// releases a job's recorder after the job ends and its dump, if any, is
// written, so a kept job record no longer holds the ring. A released
// recorder drops later events, and its window is empty.
func (r *Recorder) Release() {
	r.mu.Lock()
	r.buf, r.next, r.size = nil, 0, 0
	r.mu.Unlock()
}

// Snapshot returns the recorded window in emission order and the number of
// older events the ring evicted to make room.
func (r *Recorder) Snapshot() ([]Event, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out, r.dropped
}

// Len reports how many events the ring currently holds.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// DumpMeta identifies a post-mortem dump: which request (Corr) and job it
// belongs to, why it was taken (Reason, e.g. "timeout", "canceled",
// "convergence"), and the error string of the failure.
type DumpMeta struct {
	Corr   string
	Job    string
	Reason string
	Err    string
}

// WriteDump writes the flight-recorder post-mortem as JSON lines: a
// dump_meta header, the recorded event window, and (when errEv is non-nil) a
// trailing structured error event carrying the convergence iterate ring and
// step schedule. The output satisfies ValidateDump.
func (r *Recorder) WriteDump(w io.Writer, meta DumpMeta, errEv *Event) error {
	events, dropped := r.Snapshot()
	enc := json.NewEncoder(w)
	head := Event{
		V: SchemaVersion, Kind: KindDumpMeta,
		Corr: meta.Corr, Job: meta.Job, Reason: meta.Reason,
		Msg: meta.Err, Dropped: dropped,
	}
	if err := enc.Encode(&head); err != nil {
		return fmt.Errorf("obs: writing dump header: %w", err)
	}
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return fmt.Errorf("obs: writing dump event %d: %w", i, err)
		}
	}
	if errEv != nil {
		ev := *errEv
		ev.V = SchemaVersion
		ev.Kind = KindError
		if ev.Corr == "" {
			ev.Corr = meta.Corr
		}
		if err := enc.Encode(&ev); err != nil {
			return fmt.Errorf("obs: writing dump error event: %w", err)
		}
	}
	return nil
}
