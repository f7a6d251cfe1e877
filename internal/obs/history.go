package obs

import "slices"

// History is an event log packed for keeping: the serving layer holds one
// per job as the job's replay history, for as long as it keeps the job's
// record. Most of a run's events are span begins and ends, points and bare
// markers, which set only a few of Event's fields, so History stores each
// of them as one 64-byte record: the times, span ids and the point payload,
// with the kind and name interned per history and the schema version and
// correlation ID, which a run stamps on every event, stored once. An event
// that sets any other field (progress, log, run_end counters, runtime
// samples, error iterates, dump metadata) is kept whole. Events unpacks a
// copy equal to what was appended, field for field.
//
// The zero value is an empty history. History is not synchronized; the
// caller locks around it.
type History struct {
	v     int
	corr  string
	keys  []histKey // interned (kind, name) pairs, indexed by histRec.key
	recs  []histRec // one per appended event, in order
	whole []Event   // the events kept whole, in order
}

type histKey struct{ kind, name string }

// histRec is one appended event: a packed one, or, with key wholeKey, a
// stand-in whose span field holds the index in History.whole of an event
// kept whole.
type histRec struct {
	tNs, durNs          int64
	span, parent, track uint64
	tauS, tauH          float64
	iters               int32
	key                 uint8
}

// wholeKey marks a record that stands for an event kept whole; it also
// bounds the intern table, so past 255 distinct (kind, name) pairs an event
// with a new pair is kept whole.
const wholeKey = 255

// Len returns the number of events appended.
func (h *History) Len() int { return len(h.recs) }

// Append adds a copy of e to the history. The first event fixes the
// version and correlation ID stored once; an event that carries others is
// kept whole.
func (h *History) Append(e *Event) {
	if len(h.recs) == 0 {
		h.v, h.corr = e.V, e.Corr
	}
	if h.packable(e) {
		if key, ok := h.intern(e.Kind, e.Name); ok {
			h.recs = append(h.recs, histRec{
				tNs: e.TNs, durNs: e.DurNs,
				span: e.Span, parent: e.Parent, track: e.Track,
				tauS: e.TauS, tauH: e.TauH, iters: int32(e.Iters),
				key: key,
			})
			return
		}
	}
	h.recs = append(h.recs, histRec{key: wholeKey, span: uint64(len(h.whole))})
	h.whole = append(h.whole, *e)
}

// packable reports whether a record holds all of e: it sets no field
// beyond a record's, its iteration count fits in 32 bits, and it carries
// the history's version and correlation ID.
func (h *History) packable(e *Event) bool {
	return e.V == h.v && e.Corr == h.corr && int(int32(e.Iters)) == e.Iters &&
		e.Done == 0 && e.Total == 0 && e.ETANs == 0 && e.Phase == "" && e.Msg == "" &&
		e.Goroutines == 0 && e.HeapBytes == 0 && e.GCPauseNs == 0 && e.SchedP99Ns == 0 &&
		e.Job == "" && e.Reason == "" && e.Dropped == 0 && e.Op == "" &&
		e.Iterates == nil && e.StepLens == nil && e.Counters == nil
}

// intern returns the index of (kind, name) in the intern table, adding the
// pair while the table has room. A run uses a few dozen pairs, so a linear
// search beats a map, which a kept history would also have to hold.
func (h *History) intern(kind, name string) (uint8, bool) {
	for i, k := range h.keys {
		if k.kind == kind && k.name == name {
			return uint8(i), true
		}
	}
	if len(h.keys) == wholeKey {
		return 0, false
	}
	h.keys = append(h.keys, histKey{kind, name})
	return uint8(len(h.keys) - 1), true
}

// Events returns a copy of the appended events, in order. Counters,
// Iterates and StepLens of an event kept whole are shared with the
// appended event, as a plain copy of it would share them.
func (h *History) Events() []Event {
	out := make([]Event, len(h.recs))
	for i, r := range h.recs {
		if r.key == wholeKey {
			out[i] = h.whole[r.span]
			continue
		}
		k := h.keys[r.key]
		out[i] = Event{
			V: h.v, TNs: r.tNs, Kind: k.kind, Name: k.name,
			Span: r.span, Parent: r.parent, Track: r.track, DurNs: r.durNs,
			TauS: r.tauS, TauH: r.tauH, Iters: int(r.iters),
			Corr: h.corr,
		}
	}
	return out
}

// Clip reallocates the history at its length, so a history that is kept
// after its run ends holds none of the spare capacity append doubling left.
func (h *History) Clip() {
	h.keys = slices.Clone(h.keys)
	h.recs = slices.Clone(h.recs)
	h.whole = slices.Clone(h.whole)
}
