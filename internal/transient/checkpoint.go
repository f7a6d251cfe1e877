package transient

import "sort"

// trailEvery is the spacing, in grid steps, of a Checkpoint's lean states.
const trailEvery = 4

// Share says how far a run's stimulus agrees with the runs before it on a
// Checkpoint: the run shares the trail's grid points strictly before each
// time. The zero Share shares nothing.
type Share struct {
	// Rest is the earliest time the run's stimulus may leave the rest
	// trajectory, the one every run on the trail follows.
	Rest float64
	// Key names the run's branch, and Branch is the earliest time its
	// stimulus may leave the trajectory every plain run with the same Key
	// follows. A Branch no later than Rest takes no branch, and neither
	// does a run with Options.Skews.
	Key    uint64
	Branch float64
}

// Checkpoint is a rest trail: integrator states along the one trajectory
// that every run sharing it follows while its stimulus agrees with the
// others' — one circuit and Options.Method, the same x0, and grid points
// that agree with the trail's grid bit for bit (DESIGN §5). It holds three
// parts:
//
//   - the full state at grid index k0: x, the last Newton evaluation's q
//     and C, TRAP's charge derivative, and the pivot analysis every engine
//     makes at step 1, copied as a block's fork copies it (Engine.forkFrom);
//   - lean states at every trailEvery-th grid point after k0: x, q, TRAP's
//     charge derivative and the C values, in one slab. They carry no
//     sensitivities: those are exactly zero until the stimulus moves;
//   - the branch: lean states without C, on the same lattice past the rest
//     part, along the trajectory of the last plain run that saved one,
//     keyed by that run's Share.Key. A run with a new key drops it.
//
// A run hands the trail its Share. It resumes at the deepest stored point
// it shares — in the rest part strictly before Share.Rest, or, for a plain
// run with the branch's key, in the branch strictly before Share.Branch —
// and appends the states it steps through there while the trail lacks
// them, so each part only grows until its key changes. A run that fails or
// is canceled keeps what it saved before: every saved state is one a run
// from x0 reaches. The caller keeps the sharing contract, as it does for a
// block's tSplit; the stf evaluator derives it from the data pulse.
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
	// floats each: x, q, TRAP's q̇, then C's values.
	lean   []float64
	stride int
	// branch holds the branch's states at k0 + trailEvery·i, i = first,
	// first+1, …, bstride floats each: x, q, then TRAP's q̇. Its slab is
	// allocated once, at its bound, and a new key reuses it.
	branch  []float64
	bstride int
	first   int
	key     uint64
}

// NewCheckpoint returns an empty trail on grid whose full state sits at grid
// index k0 (1 ≤ k0 < grid.Len()).
func NewCheckpoint(grid Grid, k0 int) *Checkpoint {
	return &Checkpoint{pts: grid.Points(), k0: k0}
}

// at returns the grid index of the trail's i-th lattice point.
func (cp *Checkpoint) at(i int) int { return cp.k0 + trailEvery*i }

// stored returns the number of lean states the rest part holds.
func (cp *Checkpoint) stored() int {
	if cp.stride == 0 {
		return 0
	}
	return len(cp.lean) / cp.stride
}

// branched returns the number of states the branch holds.
func (cp *Checkpoint) branched() int {
	if cp.bstride == 0 {
		return 0
	}
	return len(cp.branch) / cp.bstride
}

// trailRun is one run's place on a trail: the deepest grid index it shares
// of the rest part and of the branch, and the next grid index at which it
// saves a state.
type trailRun struct {
	cp     *Checkpoint
	reach  int
	branch int // −1: the run takes no branch
	key    uint64
	next   int // −1: the run saves nothing more
}

// open returns the place on cp of a run over pts that shares sh, a plain
// run when plain is set. A nil cp shares nothing.
func (cp *Checkpoint) open(pts []float64, sh Share, plain bool) trailRun {
	r := trailRun{cp: cp, branch: -1, key: sh.Key, next: -1}
	if cp == nil {
		return r
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
	r.reach = before(pts[:m], sh.Rest)
	// The branch starts on the first lattice point past the rest part's
	// reach, so it needs a reach at or past the full state.
	if b := before(pts[:m], sh.Branch); plain && r.reach >= cp.k0 && b > r.reach {
		r.branch = b
	}
	return r
}

// before returns the last index of pts strictly before t, or 0 when there
// is none; a NaN t reaches nothing.
func before(pts []float64, t float64) int {
	return max(sort.Search(len(pts), func(i int) bool { return !(pts[i] < t) })-1, 0)
}

// depth returns the deepest grid index at which the trail holds a state the
// run shares, and whether that state is on the branch; 0 when there is none.
func (r *trailRun) depth() (int, bool) {
	cp := r.cp
	if cp == nil || cp.full == nil || r.reach < cp.k0 {
		return 0, false
	}
	k := cp.at(min((r.reach-cp.k0)/trailEvery, cp.stored()))
	if r.branch >= 0 && cp.key == r.key && cp.branched() > 0 {
		i := min((r.branch-cp.k0)/trailEvery, cp.first+cp.branched()-1)
		if i >= cp.first && cp.at(i) > k {
			return cp.at(i), true
		}
	}
	return k, false
}

// branchNext returns the grid index of the branch state the run would save
// next: the branch's next one under the run's key, or, under another key,
// the first lattice point past the run's rest reach.
func (r *trailRun) branchNext() int {
	cp := r.cp
	if cp.key == r.key && cp.branched() > 0 {
		return cp.at(cp.first + cp.branched())
	}
	return cp.at((r.reach-cp.k0)/trailEvery + 1)
}

// following returns the first grid index after k at which the run saves a
// state the trail lacks, or −1.
func (r *trailRun) following(k int) int {
	cp := r.cp
	if cp == nil {
		return -1
	}
	next := -1
	kr := cp.k0
	if cp.full != nil {
		kr = cp.at(cp.stored() + 1)
	}
	if kr > k && kr <= r.reach {
		next = kr
	}
	if r.branch >= 0 {
		if kb := r.branchNext(); kb > k && kb <= r.branch && (next < 0 || kb < next) {
			next = kb
		}
	}
	return next
}

// restore brings e to the trail's state at grid index k, a depth the run
// shares; onBranch selects the branch's state there.
func (r *trailRun) restore(k int, onBranch bool, e *Engine) {
	cp := r.cp
	if k == cp.k0 {
		e.forkFrom(cp.full)
		return
	}
	e.lu.Share(&cp.full.lu)
	i := (k - cp.k0) / trailEvery
	if onBranch {
		i -= cp.first
		e.restoreLean(cp.branch[i*cp.bstride : (i+1)*cp.bstride])
		return
	}
	i-- // the rest part's lean states start at lattice point 1
	e.restoreLean(cp.lean[i*cp.stride : (i+1)*cp.stride])
}

// restoreLean brings e to the lean state s: x, q, TRAP's q̇, then C's values
// when s holds them and e carries sensitivities, which start at zero.
func (e *Engine) restoreLean(s []float64) {
	n := len(e.x)
	copy(e.x, s[:n])
	copy(e.qPrev, s[n:2*n])
	s = s[2*n:]
	if e.opts.Method == TRAP {
		copy(e.qdotPrev, s[:n])
		s = s[n:]
	}
	if e.opts.Skews {
		copy(e.cPrev.Val, s)
	}
	clear(e.ms)
	clear(e.mh)
	if e.opts.Skews && e.opts.Method == TRAP {
		clear(e.msdotPrev)
		clear(e.mhdot)
	}
}

// appendLean appends e's lean state to s, with C's values when withC is
// set, into a slab of capacity lattice points when s has none.
func (e *Engine) appendLean(s []float64, withC bool, capacity int) ([]float64, int) {
	stride := 2 * len(e.x)
	if e.opts.Method == TRAP {
		stride += len(e.x)
	}
	if withC {
		stride += len(e.ev.C.Val)
	}
	if s == nil {
		s = make([]float64, 0, capacity*stride)
	}
	s = append(s, e.x...)
	s = append(s, e.qPrev...)
	if e.opts.Method == TRAP {
		s = append(s, e.qdotPrev...)
	}
	if withC {
		s = append(s, e.ev.C.Val...)
	}
	return s, stride
}

// save stores e's state at grid index k, which the run has just stepped to
// and following named, in the part that lacks it — the full state, the
// rest part's next lean state or the branch's — and finds the next one.
func (r *trailRun) save(k int, e *Engine) {
	cp := r.cp
	bound := (len(cp.pts) - 1 - cp.k0) / trailEvery // lattice points past k0
	switch {
	case k == cp.k0 && cp.full == nil:
		st := newEngine(e.c, Options{Method: e.opts.Method, Skews: true}, e)
		st.forkFrom(e)
		// A plain run keeps no C history; its last Newton evaluation's C is it.
		copy(st.cPrev.Val, e.ev.C.Val)
		cp.full = st
	case k <= r.reach && cp.full != nil && k == cp.at(cp.stored()+1):
		cp.lean, cp.stride = e.appendLean(cp.lean, true, bound)
	}
	if r.branch >= 0 && k <= r.branch && k == r.branchNext() {
		if cp.key != r.key || cp.branched() == 0 {
			cp.key, cp.first, cp.branch = r.key, (k-cp.k0)/trailEvery, cp.branch[:0]
		}
		cp.branch, cp.bstride = e.appendLean(cp.branch, false, bound)
	}
	r.next = r.following(k)
}
