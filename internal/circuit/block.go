package circuit

// Cross-lane device-eval sharing for the block-transient kernel: lanes of a
// block evaluate the same circuit at nearby states, so a device whose
// terminal voltages in THIS lane sit within the bypass tolerance of the
// snapshot another lane's tape was cut at can replay that lane's stamps
// verbatim. The tapes store resolved value indices against the circuit's
// shared slot maps, so a record cut on one Eval applies bit-identically to
// any other Eval of the same circuit.

// AtWithDonor assembles q, f, src, C and G for state x at time t like At,
// but additionally offers every bypassable device the donor evaluator's
// standing tape: when the device's own tape is stale yet the donor's tape is
// fresh against x (within the bypass tolerance), the donor's stamps are
// replayed — and copied onto the device's own tape so later assemblies of
// this lane keep hitting without the donor. The donor must evaluate the same
// circuit. It returns the number of device evaluations served by a donor
// replay; own-tape replays count in ev.Bypasses as usual. With the bypass
// disabled or held, AtWithDonor behaves exactly like At.
func (ev *Eval) AtWithDonor(x []float64, t float64, donor *Eval) int {
	if donor != nil && donor.c != ev.c {
		panic("circuit: AtWithDonor donor evaluates a different circuit")
	}
	if ev.tapes == nil || ev.bypassHold || donor == nil || donor.tapes == nil {
		ev.At(x, t)
		return 0
	}
	if len(x) != ev.c.N() {
		panic("circuit: Eval.At state length mismatch")
	}
	for i := range ev.Q {
		ev.Q[i] = 0
		ev.F[i] = 0
		ev.Src[i] = 0
	}
	ev.C.ZeroVals()
	ev.G.ZeroVals()
	ev.ctx.X = x
	ev.ctx.T = t
	replays := 0
	for di, d := range ev.c.devices {
		tp := ev.tapes[di]
		if tp == nil {
			d.Eval(&ev.ctx)
			continue
		}
		if tp.fresh(x) {
			tp.replay(ev)
			ev.Bypasses++
			continue
		}
		if dtp := donor.tapes[di]; dtp != nil && dtp.fresh(x) {
			dtp.replay(ev)
			tp.copyFrom(dtp)
			replays++
			continue
		}
		tp.snapshot(x)
		tp.recs = tp.recs[:0]
		ev.ctx.tape = tp
		d.Eval(&ev.ctx)
		ev.ctx.tape = nil
		tp.valid = true
	}
	gmin := ev.c.Gmin
	numNodes := len(ev.c.nodeNames)
	base := len(ev.c.gEntries) - numNodes
	for i := 0; i < numNodes; i++ {
		ev.F[i] += gmin * x[i]
		ev.G.Val[ev.c.gSlotMap[base+i]] += gmin
	}
	return replays
}

// copyFrom makes tp a replica of src (snapshot and records), reusing tp's
// storage. Both tapes must watch the same terminals (true by construction:
// tapes are index-aligned with one circuit's device list).
func (tp *stampTape) copyFrom(src *stampTape) {
	copy(tp.vSnap, src.vSnap)
	tp.recs = append(tp.recs[:0], src.recs...)
	tp.valid = true
}
