package circuit

import "math"

// Device-eval latency bypass (Nagel's SPICE2 technique): a device whose
// stamps are a pure function of a few terminal voltages does not need to be
// re-evaluated while those voltages sit still. The Eval records the device's
// stamp stream (a "tape") the first time it runs and replays it verbatim on
// later assemblies whenever every watched terminal has moved less than a
// tolerance since the tape was cut. The comparison is always against the
// snapshot the tape was recorded at — never the previous assembly — so the
// replay error stays bounded by the tolerance no matter how many assemblies
// the bypass survives.

// StateOnlyDevice is implemented by devices eligible for the latency bypass.
// The contract: every value the device stamps (q, f, C, G) must be a pure
// function of the voltages of the returned terminals — no dependence on time
// or on any other unknown — and the device must not stamp src(t). MOSFET
// models qualify; independent sources and anything clocked do not.
type StateOnlyDevice interface {
	Device
	// BypassTerminals returns the unknowns the device's stamps depend on.
	// Ground entries are allowed and compare as 0 V.
	BypassTerminals() []UnknownID
}

// stampKind tags one replayable stamp record.
type stampKind uint8

const (
	tapeQ stampKind = iota
	tapeF
	tapeSrc
	tapeC // idx is a resolved C.Val index
	tapeG // idx is a resolved G.Val index
)

type stampRec struct {
	kind stampKind
	idx  int32
	v    float64
}

// stampTape is the recorded stamp stream of one bypassable device plus the
// terminal-voltage snapshot it was cut at.
type stampTape struct {
	terms []UnknownID
	vSnap []float64
	valid bool
	recs  []stampRec
}

func newStampTape(terms []UnknownID) *stampTape {
	return &stampTape{terms: terms, vSnap: make([]float64, len(terms))}
}

func termV(x []float64, id UnknownID) float64 {
	if id == Ground {
		return 0
	}
	return x[id]
}

// fresh reports whether every watched terminal is within BypassVTol of the
// recording snapshot.
func (tp *stampTape) fresh(x []float64) bool {
	if !tp.valid {
		return false
	}
	for i, id := range tp.terms {
		if math.Abs(termV(x, id)-tp.vSnap[i]) > BypassVTol {
			return false
		}
	}
	return true
}

func (tp *stampTape) snapshot(x []float64) {
	for i, id := range tp.terms {
		tp.vSnap[i] = termV(x, id)
	}
}

// replay re-applies the recorded stamps to the assembly arrays.
func (tp *stampTape) replay(ev *Eval) {
	for _, r := range tp.recs {
		switch r.kind {
		case tapeQ:
			ev.Q[r.idx] += r.v
		case tapeF:
			ev.F[r.idx] += r.v
		case tapeSrc:
			ev.Src[r.idx] += r.v
		case tapeC:
			ev.C.Val[r.idx] += r.v
		case tapeG:
			ev.G.Val[r.idx] += r.v
		}
	}
}

// HoldBypass suspends (true) or resumes (false) the replay path without
// touching the recorded tapes. Integrators hold the bypass after the first
// Newton iteration of a step: replaying frozen stamps across iterations
// freezes the residual too, which can pin ‖dx‖ just above the convergence
// tolerance forever (the classic bypass livelock). Held evaluations run the
// exact models and leave the standing tapes as they are — the freshness
// test always compares against the recording snapshot, so resuming later
// keeps the replay error bounded by the tolerance.
func (ev *Eval) HoldBypass(hold bool) { ev.bypassHold = hold }

// EnableBypass activates the device-latency bypass for every device
// implementing StateOnlyDevice: a device whose watched terminals all sit
// within BypassVTol of its tape's recording snapshot replays the cached
// stamps instead of re-evaluating. Calling EnableBypass again is a no-op;
// existing tapes stay valid.
func (ev *Eval) EnableBypass() {
	if ev.tapes != nil {
		return
	}
	ev.tapes = make([]*stampTape, len(ev.c.devices))
	for i, d := range ev.c.devices {
		if sd, ok := d.(StateOnlyDevice); ok {
			ev.tapes[i] = newStampTape(sd.BypassTerminals())
		}
	}
}

// BypassVTol is the bypass terminal-voltage tolerance in volts: well under
// the Newton VTol-scale solution accuracy, so the bypass perturbs converged
// states by less than the solver already tolerates.
const BypassVTol = 1e-6
