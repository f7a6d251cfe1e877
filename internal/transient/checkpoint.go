package transient

// Checkpoint is the integrator state at one grid point, shared by runs that
// integrate the same trajectory up to it: one circuit and Options.Method,
// the same x0 and grid, and a stimulus that agrees at every grid point up
// to the checkpoint's (DESIGN §5). The first run handed an empty checkpoint
// that steps past its grid point saves its state there; every later run
// handed it resumes there instead of integrating the prefix again, and
// counts the skipped lane-steps in Stats.ResumedSteps. A run that fails or
// is canceled before the grid point saves nothing. The caller keeps the
// sharing contract, as it does for a block's tSplit; the stf evaluator
// checks it against the data pulse.
//
// A resumed run equals the run from x0 bit for bit. Saving and resuming
// copy the state as a block's fork does (Engine.forkFrom): x, the last
// Newton evaluation's q and C, and TRAP's charge derivative, the same for
// plain and gradient runs, plus the pivot analysis every engine makes at
// step 1, so an engine whose first run resumes refactorizes as one that
// ran from x0 would. The sensitivities are exactly zero until the data
// line moves, whichever run saved them.
type Checkpoint struct {
	k  int
	st *Engine // the saved state; nil until a run saves it
}

// NewCheckpoint returns an empty checkpoint at grid index k (k ≥ 1).
func NewCheckpoint(k int) *Checkpoint { return &Checkpoint{k: k} }

// saveAt saves e's state into cp when e has just stepped to grid index k,
// cp's, and cp holds no state yet. A nil cp saves nothing.
func (cp *Checkpoint) saveAt(k int, e *Engine) {
	if cp == nil || cp.st != nil || k != cp.k {
		return
	}
	st := newEngine(e.c, Options{Method: e.opts.Method, Skews: true}, e)
	st.forkFrom(e)
	// A plain run keeps no C history; its last Newton evaluation's C is it.
	copy(st.cPrev.Val, e.ev.C.Val)
	cp.st = st
}
