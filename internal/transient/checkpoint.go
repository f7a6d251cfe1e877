package transient

import "sort"

// trailEvery is the spacing, in grid steps, of a Checkpoint's lean states.
const trailEvery = 4

// Checkpoint is a rest trail: integrator states along the one trajectory
// that every run sharing it follows while its stimulus agrees with the
// others' — one circuit and Options.Method, the same x0, and grid points
// that agree with the trail's grid bit for bit (DESIGN §5). It holds two
// parts:
//
//   - the full state at grid index k0: x, the last Newton evaluation's q
//     and C, TRAP's charge derivative, and the pivot analysis every engine
//     makes at step 1, copied as a block's fork copies it (Engine.forkFrom);
//   - lean states at every trailEvery-th grid point after k0: x, q, the C
//     values and TRAP's charge derivative, in one slab. They carry no
//     sensitivities: those are exactly zero until the stimulus moves.
//
// A run hands the trail its until, the earliest time its stimulus may leave
// the shared one. It resumes at the deepest stored point strictly before
// until that its grid shares, and appends the states it steps through there
// while the trail lacks them, so the trail only grows. A run that fails or
// is canceled keeps what it saved before: every saved state is one a run
// from x0 reaches. The caller keeps the sharing contract, as it does for a
// block's tSplit; the stf evaluator derives until from the data pulse.
//
// A resumed run equals the run from x0 bit for bit, and counts the skipped
// lane-steps in Stats.ResumedSteps. An engine that resumes takes the trail's
// pivot analysis unless it keeps one, so it refactorizes as one that ran
// from x0 would. A Checkpoint is not safe for concurrent use.
type Checkpoint struct {
	pts  []float64 // the trail's grid
	k0   int       // grid index of the full state
	full *Engine   // the full state; nil until a run saves it
	// lean holds the lean states at k0 + trailEvery·i, i = 1, 2, …, stride
	// floats each: x, q, C's values, then TRAP's q̇.
	lean   []float64
	stride int
}

// NewCheckpoint returns an empty trail on grid whose full state sits at grid
// index k0 (1 ≤ k0 < grid.Len()).
func NewCheckpoint(grid Grid, k0 int) *Checkpoint {
	return &Checkpoint{pts: grid.Points(), k0: k0}
}

// reach returns the deepest grid index at which a run over pts, whose
// stimulus agrees with the trail's strictly before until, is on the trail's
// trajectory: pts agrees with the trail's grid up to it, and it lies before
// until. It returns 0, the run's start, when there is none or cp is nil; a
// NaN until reaches nothing.
func (cp *Checkpoint) reach(pts []float64, until float64) int {
	if cp == nil {
		return 0
	}
	m := min(len(pts), len(cp.pts))
	if &pts[0] != &cp.pts[0] {
		for i := 0; i < m; i++ {
			if pts[i] != cp.pts[i] {
				m = i
				break
			}
		}
	}
	return max(sort.Search(m, func(i int) bool { return !(pts[i] < until) })-1, 0)
}

// depth returns the deepest stored grid index at or before r, or 0 when the
// trail holds none there.
func (cp *Checkpoint) depth(r int) int {
	if cp == nil || cp.full == nil || r < cp.k0 {
		return 0
	}
	return cp.k0 + trailEvery*min((r-cp.k0)/trailEvery, cp.stored())
}

// stored returns the number of lean states the trail holds.
func (cp *Checkpoint) stored() int {
	if cp.stride == 0 {
		return 0
	}
	return len(cp.lean) / cp.stride
}

// restore brings e to the trail's state at grid index k, a depth the trail
// holds.
func (cp *Checkpoint) restore(k int, e *Engine) {
	if k == cp.k0 {
		e.forkFrom(cp.full)
		return
	}
	e.lu.Share(&cp.full.lu)
	n, nc := len(e.x), len(e.cPrev.Val)
	i := (k-cp.k0)/trailEvery - 1 // the lean state's index in the slab
	s := cp.lean[i*cp.stride : (i+1)*cp.stride]
	copy(e.x, s[:n])
	copy(e.qPrev, s[n:2*n])
	if e.opts.Skews {
		copy(e.cPrev.Val, s[2*n:2*n+nc])
	}
	if e.opts.Method == TRAP {
		copy(e.qdotPrev, s[2*n+nc:3*n+nc])
	}
	clear(e.ms)
	clear(e.mh)
	if e.opts.Skews && e.opts.Method == TRAP {
		clear(e.msdotPrev)
		clear(e.mhdot)
	}
}

// save stores e's state when e has just stepped to grid index k, at most
// the run's reach r, and the trail lacks the state there: the full state at
// k0, or the next lean state. A nil cp saves nothing.
func (cp *Checkpoint) save(k, r int, e *Engine) {
	switch {
	case cp == nil || k > r:
	case k == cp.k0 && cp.full == nil:
		st := newEngine(e.c, Options{Method: e.opts.Method, Skews: true}, e)
		st.forkFrom(e)
		// A plain run keeps no C history; its last Newton evaluation's C is it.
		copy(st.cPrev.Val, e.ev.C.Val)
		cp.full = st
	case cp.full != nil && k == cp.k0+trailEvery*(cp.stored()+1):
		if cp.lean == nil {
			n := len(e.x)
			cp.stride = 2*n + len(e.ev.C.Val)
			if e.opts.Method == TRAP {
				cp.stride += n
			}
			cp.lean = make([]float64, 0, (len(cp.pts)-1-cp.k0)/trailEvery*cp.stride)
		}
		cp.lean = append(cp.lean, e.x...)
		cp.lean = append(cp.lean, e.qPrev...)
		cp.lean = append(cp.lean, e.ev.C.Val...)
		if e.opts.Method == TRAP {
			cp.lean = append(cp.lean, e.qdotPrev...)
		}
	}
}
