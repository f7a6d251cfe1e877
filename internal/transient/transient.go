package transient

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime/pprof"
	"time"

	"latchchar/internal/circuit"
	"latchchar/internal/num"
	"latchchar/internal/obs"
	"latchchar/internal/sparse"
)

// Method selects the integration scheme.
type Method int

const (
	// BE is first-order Backward Euler (default): L-stable, damps the
	// numerical ringing that TRAP can exhibit on stiff latch nodes.
	BE Method = iota
	// TRAP is the second-order trapezoidal rule.
	TRAP
)

func (m Method) String() string {
	if m == TRAP {
		return "trap"
	}
	return "be"
}

// ErrNewtonFailure indicates a time step whose Newton iteration did not
// converge. The grid is fixed (it must not depend on the skews), so the
// engine cannot retry with a smaller step; choose a finer grid instead.
var ErrNewtonFailure = errors.New("transient: Newton did not converge")

// ErrCanceled indicates a run stopped by context cancellation between time
// steps. Errors returned for canceled runs wrap both this sentinel and the
// context cause, so errors.Is works against either.
var ErrCanceled = errors.New("transient: run canceled")

// Options configure a transient run.
type Options struct {
	Method Method
	// Skews enables forward propagation of mₛ and m_h.
	Skews bool
	// MaxNewtonIter bounds the per-step Newton iterations (default 50).
	MaxNewtonIter int
	// VTol, ITol, RelTol define Newton convergence per unknown class.
	VTol, ITol, RelTol float64
	// Probes lists unknowns whose waveforms are recorded at every grid
	// point.
	Probes []circuit.UnknownID
	// Stop, when set, can end a run before the grid does: it is called after
	// each accepted step with the step's start and end times and the states
	// there (read-only, valid for the call), and the step for which it
	// returns true is the run's last. The Result of a stopped run ends at
	// that step — Times, Probes and X — and its Stats count the work done up
	// to it. A run resumed from a Checkpoint calls it for the steps it takes
	// only, so the caller shares no state past a step Stop could end the run
	// at. Scalar runs only: NewBlockEngine rejects it.
	Stop func(ta, tb float64, xa, xb []float64) bool
}

// Validate rejects option values the defaulting pass cannot repair:
// non-finite tolerances and a negative iteration bound. The zero value is
// valid — withDefaults fills every unset knob — and Options built from a
// validated stf.Config never trip it; RunCtx re-checks so hand-built engines
// fail fast instead of iterating on NaN.
func (o Options) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"VTol", o.VTol},
		{"ITol", o.ITol},
		{"RelTol", o.RelTol},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("transient: %s must be finite, got %g", f.name, f.v)
		}
	}
	if o.MaxNewtonIter < 0 {
		return fmt.Errorf("transient: MaxNewtonIter must be non-negative")
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.MaxNewtonIter <= 0 {
		o.MaxNewtonIter = 50
	}
	if o.VTol <= 0 {
		o.VTol = 1e-7
	}
	if o.ITol <= 0 {
		o.ITol = 1e-10
	}
	if o.RelTol <= 0 {
		o.RelTol = 1e-5
	}
	return o
}

// Stats counts the work done by a run; the characterization layers use it
// for the paper's cost comparisons. Steps, NewtonIters and Factorizations
// count only executed work: the lane-steps a run took from a Checkpoint
// (ResumedSteps) or from the block's shared prefix (BlockSharedSteps) cost
// no Newton iteration. Every Newton iteration factorizes once and nothing
// else factorizes, so Factorizations == NewtonIters; the sensitivity solves
// (SensSolves) back-substitute against the last Newton iteration's LU — the
// paper's "essentially free gradient" (DESIGN §5). A completed run with K
// lanes (K = 1 for Engine) accounts for its whole grid:
// Steps + BlockSharedSteps + ResumedSteps == K × (grid points − 1).
type Stats struct {
	Steps          int
	NewtonIters    int
	Factorizations int
	SensSolves     int

	// ResumedSteps counts the lane-steps a run took from a Checkpoint
	// instead of integrating them: per lane, the grid index of the trail
	// state the run resumed at, the deepest stored one it shares — on the
	// rest part before its Share.Rest, or, for a plain run with the
	// branch's key, on the branch before its Share.Branch.
	ResumedSteps int

	// Block-transient accounting (BlockEngine; zero for scalar runs).
	// BlockSharedSteps counts lane-steps served by the shared exact prefix —
	// steps lanes 1…K−1 never had to integrate because every lane's
	// stimulus is bit-identical before the skews diverge. BlockPeelOffs
	// counts lanes that dropped out of a block on a Newton failure.
	BlockSharedSteps int
	BlockPeelOffs    int

	// Deprecated: the chord iterations this counted are gone (DESIGN §10);
	// it is always zero.
	ChordIters int
	// Deprecated: the device-eval bypass this counted is gone (DESIGN §10);
	// it is always zero.
	DeviceBypasses int
	// Deprecated: the cross-lane stamp replay this counted is gone (DESIGN
	// §13); it is always zero.
	BlockDonorReplays int

	// Wall-clock attribution. Wall is always measured, exactly. LU
	// (factorize + solve), DeviceEval (device evaluation and assembly) and
	// Sens (sensitivity back-substitutions) are set only when an obs run is
	// attached, and are then a sample: the run clocks one executed step in
	// LayerSampleStride, its first included, and splits Wall in the
	// proportions those steps spent in each layer. The three are disjoint
	// parts of the sampled steps, so LU + DeviceEval + Sens ≤ Wall; the rest
	// of Wall is the integrator's own work. A run that executed no step
	// reports zero. Without an obs run nothing is clocked but Wall.
	Wall       time.Duration
	LU         time.Duration
	DeviceEval time.Duration
	Sens       time.Duration
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Steps += other.Steps
	s.NewtonIters += other.NewtonIters
	s.Factorizations += other.Factorizations
	s.SensSolves += other.SensSolves
	s.ResumedSteps += other.ResumedSteps
	s.BlockSharedSteps += other.BlockSharedSteps
	s.BlockPeelOffs += other.BlockPeelOffs
	s.Wall += other.Wall
	s.LU += other.LU
	s.DeviceEval += other.DeviceEval
	s.Sens += other.Sens
}

// Result holds the outcome of a transient run.
type Result struct {
	// Times is the grid (aliased, do not modify).
	Times []float64
	// Probes[i] is the waveform of Options.Probes[i] over Times.
	Probes [][]float64
	// X is the final state x(t_end).
	X []float64
	// Ms and Mh are the final sensitivities ∂x/∂τs and ∂x/∂τh when
	// Options.Skews is set, nil otherwise.
	Ms, Mh []float64
	// Stats reports the work done.
	Stats Stats
}

// Engine runs transient analyses of one finalized circuit. It owns all
// per-run scratch memory, so repeated runs (the characterization inner
// loop) do not allocate. An Engine is not safe for concurrent use.
type Engine struct {
	c    *circuit.Circuit
	ev   *circuit.Eval
	opts Options

	j          *sparse.CSR // α·C + G
	mapC, mapG []int
	lu         sparse.Reusable

	x, r, dx           []float64
	xPrev              []float64 // the state before the step; Stop runs only
	qPrev              []float64
	cPrev              *sparse.CSR
	qdotPrev           []float64 // TRAP only
	ms, mh             []float64
	msdotPrev, mhdot   []float64 // TRAP sensitivity derivative memory
	zsVec, zhVec, rhsS []float64
	scrA, scrB         []float64

	stats Stats

	// Per-run observability state (set by RunObs, cleared by default Run).
	timed      bool        // sample the layer times
	sample     layerSample // this run's sampled steps
	hist       bool        // accumulate the per-step Newton histogram
	newtonHist obs.Hist    // local accumulator, merged once per run
	prof       profLabels
}

// LayerSampleStride is the stride of a timed run's layer-time sample: the
// run clocks its executed steps 0, LayerSampleStride, 2·LayerSampleStride, …
// (see Stats.Wall).
const LayerSampleStride = 16

// layerSample is a timed run's sample of its executed steps: how many it
// has taken, and over the sampled ones their whole time and the parts spent
// assembling the devices, in LU and in the sensitivity solves.
type layerSample struct {
	steps                int
	whole, dev, lu, sens time.Duration
	start                time.Time // the sampled step's start
}

// now reads the monotonic clock as the time since the sampled step's start:
// one clock read, where time.Now takes two.
func (s *layerSample) now() time.Duration { return time.Since(s.start) }

// take counts an executed step and reports whether it is sampled.
func (s *layerSample) take() bool {
	s.steps++
	return (s.steps-1)%LayerSampleStride == 0
}

// add accumulates another lane's sample into s.
func (s *layerSample) add(o layerSample) {
	s.whole += o.whole
	s.dev += o.dev
	s.lu += o.lu
	s.sens += o.sens
}

// split sets st's DeviceEval, LU and Sens to st.Wall divided in the sampled
// steps' proportions, each rounded down, so their sum never exceeds Wall.
func (s *layerSample) split(st *Stats) {
	st.DeviceEval = share(st.Wall, s.dev, s.whole)
	st.LU = share(st.Wall, s.lu, s.whole)
	st.Sens = share(st.Wall, s.sens, s.whole)
}

// share returns wall·part/whole rounded down, and 0 for an empty whole. It
// needs 0 ≤ part ≤ whole, which bounds the quotient by wall.
func share(wall, part, whole time.Duration) time.Duration {
	if whole <= 0 || wall <= 0 || part <= 0 {
		return 0
	}
	hi, lo := bits.Mul64(uint64(wall), uint64(part))
	q, _ := bits.Div64(hi, lo, uint64(whole))
	return time.Duration(q)
}

// profLabels holds the prebuilt pprof label contexts; switching goroutine
// labels per phase is then a pointer swap, cheap enough for the step loop.
type profLabels struct {
	active        bool
	transient, lu context.Context
}

func (p *profLabels) init() {
	if p.transient != nil {
		return
	}
	p.transient = pprof.WithLabels(context.Background(), pprof.Labels("lcphase", "transient"))
	p.lu = pprof.WithLabels(context.Background(), pprof.Labels("lcphase", "lu"))
}

// NewEngine prepares an engine for the circuit with the given options.
func NewEngine(c *circuit.Circuit, opts Options) *Engine {
	return newEngine(c, opts, nil)
}

// newEngine builds an engine. With a non-nil proto — an engine of the same
// circuit — the union-pattern symbolic analysis is shared instead of being
// recomputed: the Jacobian aliases proto's RowPtr/Col structure with fresh
// values. Block lanes use this so one symbolic analysis serves the block.
func newEngine(c *circuit.Circuit, opts Options, proto *Engine) *Engine {
	o := opts.withDefaults()
	ev := c.NewEval()
	n := c.N()
	e := &Engine{
		c:     c,
		ev:    ev,
		opts:  o,
		x:     make([]float64, n),
		r:     make([]float64, n),
		dx:    make([]float64, n),
		qPrev: make([]float64, n),
		cPrev: nil,
		ms:    make([]float64, n),
		mh:    make([]float64, n),
	}
	if proto != nil {
		e.j = proto.j.PatternClone()
		e.mapC, e.mapG = proto.mapC, proto.mapG
	} else {
		e.j, e.mapC, e.mapG = sparse.UnionPattern(ev.C, ev.G)
	}
	e.cPrev = ev.C.Clone()
	e.qdotPrev = make([]float64, n)
	e.msdotPrev = make([]float64, n)
	e.mhdot = make([]float64, n)
	e.zsVec = make([]float64, n)
	e.zhVec = make([]float64, n)
	e.rhsS = make([]float64, n)
	e.scrA = make([]float64, n)
	e.scrB = make([]float64, n)
	if o.Stop != nil {
		e.xPrev = make([]float64, n)
	}
	return e
}

// Run integrates from x0 at grid.Start() to grid.End(). x0 is copied.
func (e *Engine) Run(x0 []float64, grid Grid) (*Result, error) {
	return e.RunCtx(context.Background(), nil, x0, grid, nil, Share{})
}

// RunObs is Run with observability attached: the simulation runs inside a
// "transient" span of run, integrator counters and the per-step Newton
// iteration histogram are published to it, and (when the run requests
// profile labels) the goroutine carries pprof phase labels so CPU profiles
// attribute time to the transient vs. LU phases. A nil run behaves exactly
// like Run and adds no allocations.
func (e *Engine) RunObs(run *obs.Run, x0 []float64, grid Grid) (*Result, error) {
	return e.RunCtx(context.Background(), run, x0, grid, nil, Share{})
}

// RunCtx is RunObs with a cancellation context: the step loop checks ctx
// between time steps, so a canceled deadline stops the integration within
// one step instead of running the grid to completion. A canceled run
// returns an error wrapping ErrCanceled and the context cause; the partial
// state is discarded (transients are cheap relative to a characterization —
// cancellation granularity for partial *results* is the contour point, see
// internal/core). A Background context adds one channel-poll per step. A
// failed or canceled run still publishes the work it did to run.
//
// A non-nil cp is a rest trail the run shares at grid points strictly
// before the times sh gives: the run resumes at the deepest state cp holds
// there and appends the ones it lacks (see Checkpoint). A nil cp integrates
// from x0 and ignores sh.
func (e *Engine) RunCtx(ctx context.Context, run *obs.Run, x0 []float64, grid Grid, cp *Checkpoint, sh Share) (*Result, error) {
	e.stats, e.sample = Stats{}, layerSample{}
	if err := e.opts.Validate(); err != nil {
		return nil, err
	}
	if attach(run, e) {
		defer pprof.SetGoroutineLabels(context.Background())
	}
	luF0, luR0 := luCounts(e)
	sp := run.StartSpan(obs.SpanTransient)
	res, err := e.run(ctx, x0, grid, cp.open(grid.Points(), sh, !e.opts.Skews))
	publish(sp, luF0, luR0, e.stats, e)
	sp.End()
	return res, err
}

// LastStats returns the work of the engine's last RunCtx, which a failed or
// canceled run did too and published; it is Result.Stats for a run that
// finished, and zero for one refused before it started.
func (e *Engine) LastStats() Stats { return e.stats }

// attach prepares lanes for a run under run: wall-clock attribution and the
// per-step iteration histograms follow run.Enabled(), pprof phase labels
// follow the run's request. It reports whether the goroutine now carries the
// transient label, which the caller clears when the run ends.
func attach(run *obs.Run, lanes ...*Engine) bool {
	on, labels := run.Enabled(), run.ProfileLabelsEnabled()
	for _, e := range lanes {
		e.timed, e.hist = on, on
		if on {
			e.newtonHist.Reset()
		}
		e.prof.active = labels
		if labels {
			e.prof.init()
		}
	}
	if labels {
		pprof.SetGoroutineLabels(lanes[0].prof.transient)
	}
	return labels
}

// luCounts sums the lanes' fresh and pattern-reusing factorization counts.
func luCounts(lanes ...*Engine) (fresh, refactor int) {
	for _, e := range lanes {
		fresh += e.lu.Factorizations
		refactor += e.lu.Refactorizations
	}
	return fresh, refactor
}

// publish reports a run of lanes — finished, failed or canceled — to its
// span sp: the fresh and pattern-reusing LU factorizations since luF0/luR0
// on two counters (their sum is Stats.Factorizations, which equals
// st.NewtonIters), st's work counters, and every lane's per-step iteration
// histograms. A nil sp publishes nothing.
func publish(sp *obs.Run, luF0, luR0 int, st Stats, lanes ...*Engine) {
	if !sp.Enabled() {
		return
	}
	luF, luR := luCounts(lanes...)
	sp.Count(obs.CtrLUFactor, int64(luF-luF0))
	sp.Count(obs.CtrLURefactor, int64(luR-luR0))
	sp.Count(obs.CtrSteps, int64(st.Steps))
	sp.Count(obs.CtrNewtonIters, int64(st.NewtonIters))
	sp.Count(obs.CtrSensSolves, int64(st.SensSolves))
	sp.Count(obs.CtrResumedSteps, int64(st.ResumedSteps))
	for _, e := range lanes {
		sp.Merge(obs.HistNewtonIters, &e.newtonHist)
	}
}

// canceled returns the error for a run whose ctx (Done channel done) ended
// before step k of steps, at time t, and nil while the run may go on.
func canceled(ctx context.Context, done <-chan struct{}, t float64, k, steps int) error {
	if done == nil {
		return nil
	}
	select {
	case <-done:
		return fmt.Errorf("%w at t=%.6g s (step %d of %d): %w",
			ErrCanceled, t, k, steps, context.Cause(ctx))
	default:
		return nil
	}
}

// run integrates over grid, from x0 or from a state of the run's trail tr.
// e.stats, zeroed by RunCtx, holds the run's work on every return, a failed
// or canceled run included, for RunCtx to publish.
func (e *Engine) run(ctx context.Context, x0 []float64, grid Grid, tr trailRun) (*Result, error) {
	n := e.c.N()
	if len(x0) != n {
		return nil, fmt.Errorf("transient: x0 length %d, want %d", len(x0), n)
	}
	pts := grid.Points()
	res := &Result{
		Times:  pts,
		Probes: make([][]float64, len(e.opts.Probes)),
	}
	for i := range res.Probes {
		res.Probes[i] = make([]float64, len(pts))
	}
	record := func(k int) {
		for pi, id := range e.opts.Probes {
			if id == circuit.Ground {
				res.Probes[pi][k] = 0
			} else {
				res.Probes[pi][k] = e.x[id]
			}
		}
	}
	wall0 := time.Now()
	k0 := e.start(x0, pts[0], &tr)
	e.stats.ResumedSteps = k0
	record(k0)
	luF0, luR0 := e.lu.Factorizations, e.lu.Refactorizations
	done := ctx.Done()
	var err error
	last := len(pts) - 1
	for k := k0 + 1; k <= last; k++ {
		if err = canceled(ctx, done, pts[k], k, len(pts)-1); err != nil {
			break
		}
		e.stats.Steps++
		if e.opts.Stop != nil {
			copy(e.xPrev, e.x)
		}
		if err = e.step(pts[k-1], pts[k]); err != nil {
			err = fmt.Errorf("%w at t=%.6g s (step %d)", err, pts[k], k)
			break
		}
		record(k)
		if k == tr.next {
			tr.save(k, e)
		}
		if e.opts.Stop != nil && e.opts.Stop(pts[k-1], pts[k], e.xPrev, e.x) {
			last = k
			break
		}
	}
	e.stats.Factorizations = (e.lu.Factorizations - luF0) + (e.lu.Refactorizations - luR0)
	e.stats.Wall = time.Since(wall0)
	e.sample.split(&e.stats)
	if err != nil {
		return nil, err
	}
	res.Times = pts[:last+1]
	for i := range res.Probes {
		res.Probes[i] = res.Probes[i][:last+1]
	}
	res.X = append([]float64(nil), e.x...)
	if e.opts.Skews {
		res.Ms = append([]float64(nil), e.ms...)
		res.Mh = append([]float64(nil), e.mh...)
	}
	res.Stats = e.stats
	return res, nil
}

// start brings e to the run's first grid point and returns its index: the
// deepest state the run shares on its trail tr, else 0 with the state x0 at
// t0. A run that records probes needs every grid point, so it always starts
// at x0. It sets the grid index at which the run saves its first state.
func (e *Engine) start(x0 []float64, t0 float64, tr *trailRun) int {
	k, onBranch := tr.depth()
	if k > 0 && len(e.opts.Probes) == 0 {
		tr.restore(k, onBranch, e)
	} else {
		k = 0
		e.initAt(x0, t0)
	}
	tr.next = tr.following(k)
	return k
}

// initAt seeds the integrator state at t0: the initial assembly fills qPrev,
// cPrev and (for TRAP) the charge derivative qdot0 = −(f + src); the
// sensitivities start at zero because x0 is fixed independent of the skews
// (paper step 1c), with the TRAP derivative memory at −∂src/∂τ(t0), which
// vanishes while the data line is quiescent. Both the scalar run and the
// block lanes initialize through here.
func (e *Engine) initAt(x0 []float64, t0 float64) {
	n := e.c.N()
	copy(e.x, x0)
	e.ev.At(e.x, t0)
	copy(e.qPrev, e.ev.Q)
	if e.opts.Skews {
		// cPrev only feeds the sensitivity recursions (eqs. (11)–(14)).
		copy(e.cPrev.Val, e.ev.C.Val)
	}
	if e.opts.Method == TRAP {
		for i := 0; i < n; i++ {
			e.qdotPrev[i] = -(e.ev.F[i] + e.ev.Src[i])
		}
	}
	for i := 0; i < n; i++ {
		e.ms[i] = 0
		e.mh[i] = 0
	}
	if e.opts.Skews && e.opts.Method == TRAP {
		e.zeroZ()
		e.ev.AddSkewSens(t0, e.zsVec, e.zhVec)
		for i := 0; i < n; i++ {
			e.msdotPrev[i] = -e.zsVec[i]
			e.mhdot[i] = -e.zhVec[i]
		}
	}
}

// forkFrom copies src's integrator state into e: the state, the charge and
// capacitance history, the sensitivities and their TRAP derivative memory.
// Block lanes 1…K−1 fork from lane 0 where the shared prefix ends, while
// every lane is still bit-identical, so the copy is exact; a rest trail
// saves and restores its full state through it the same way. e also takes src's
// pivot analysis unless it keeps one, made on the first Newton matrix from
// x0 as a scalar engine's is (no skew enters it), so e factorizes as a
// scalar engine would.
func (e *Engine) forkFrom(src *Engine) {
	e.lu.Share(&src.lu)
	copy(e.x, src.x)
	copy(e.qPrev, src.qPrev)
	if e.opts.Skews {
		copy(e.cPrev.Val, src.cPrev.Val)
	}
	if e.opts.Method == TRAP {
		copy(e.qdotPrev, src.qdotPrev)
	}
	copy(e.ms, src.ms)
	copy(e.mh, src.mh)
	if e.opts.Skews && e.opts.Method == TRAP {
		copy(e.msdotPrev, src.msdotPrev)
		copy(e.mhdot, src.mhdot)
	}
}

// solveNewton factorizes the assembled Jacobian into e.lu and
// back-substitutes the residual for the Newton update, under the LU pprof
// phase label when the run asks for labels.
func (e *Engine) solveNewton() error {
	if e.prof.active {
		pprof.SetGoroutineLabels(e.prof.lu)
		defer pprof.SetGoroutineLabels(e.prof.transient)
	}
	if err := e.lu.Factorize(e.j); err != nil {
		return err
	}
	e.lu.Solve(e.r, e.dx)
	return nil
}

func (e *Engine) zeroZ() {
	for i := range e.zsVec {
		e.zsVec[i] = 0
		e.zhVec[i] = 0
	}
}

// step advances the state from t0 to t1, updating x, qPrev, cPrev and the
// sensitivities in place: one full Newton solve of the discretized
// equations, then the sensitivity solves against the last Newton
// iteration's factorization (DESIGN §5). The scalar engine and every block
// lane step through here, with Skews on or off, so a gradient run follows
// the plain run's trajectory bit for bit. A timed run clocks its sampled
// steps whole, failed ones included, and their layers inside advance.
func (e *Engine) step(t0, t1 float64) error {
	if !e.timed || !e.sample.take() {
		return e.advance(t0, t1, false)
	}
	e.sample.start = time.Now()
	err := e.advance(t0, t1, true)
	e.sample.whole += e.sample.now()
	return err
}

// advance is step's work; with clocked set it adds the time of each device
// assembly, each LU factorize-and-solve and the sensitivity solves to the
// run's sample, reading the clock only at those boundaries.
func (e *Engine) advance(t0, t1 float64, clocked bool) error {
	n := e.c.N()
	dt := t1 - t0
	var alpha float64 // J = alpha·C + G
	if e.opts.Method == TRAP {
		alpha = 2 / dt
	} else {
		alpha = 1 / dt
	}
	numNodes := e.c.NumNodes()
	converged := false
	iters := 0
	var mark time.Duration
	for iter := 0; iter < e.opts.MaxNewtonIter; iter++ {
		if clocked {
			mark = e.sample.now()
		}
		e.ev.At(e.x, t1)
		if clocked {
			e.sample.dev += e.sample.now() - mark
		}
		switch e.opts.Method {
		case TRAP:
			for i := 0; i < n; i++ {
				e.r[i] = alpha*(e.ev.Q[i]-e.qPrev[i]) - e.qdotPrev[i] + e.ev.F[i] + e.ev.Src[i]
			}
		default: // BE
			for i := 0; i < n; i++ {
				e.r[i] = alpha*(e.ev.Q[i]-e.qPrev[i]) + e.ev.F[i] + e.ev.Src[i]
			}
		}
		sparse.Combine(e.j, alpha, e.ev.C, e.mapC, 1, e.ev.G, e.mapG)
		if clocked {
			mark = e.sample.now()
		}
		err := e.solveNewton()
		if clocked {
			e.sample.lu += e.sample.now() - mark
		}
		if err != nil {
			return fmt.Errorf("transient: Jacobian factorization failed: %w", err)
		}
		e.stats.NewtonIters++
		iters++
		conv := true
		for i := 0; i < n; i++ {
			if !num.IsFinite(e.dx[i]) {
				return ErrNewtonFailure
			}
			e.x[i] -= e.dx[i]
			ad := math.Abs(e.dx[i])
			atol := e.opts.VTol
			if i >= numNodes {
				atol = e.opts.ITol
			}
			if ad > atol+e.opts.RelTol*math.Abs(e.x[i]) {
				conv = false
			}
		}
		if conv {
			converged = true
			break
		}
	}
	if !converged {
		return ErrNewtonFailure
	}
	if e.hist {
		e.newtonHist.Observe(iters, 1)
	}

	// Nothing is rebuilt at the accepted state, in either mode: the last
	// Newton evaluation and its LU differ from it by the last update, which
	// lies within the convergence tolerance. That evaluation gives the charge
	// history (Q, and for TRAP F+Src), and the sensitivity solves
	// back-substitute against its LU with its C, as eqs. (9)–(14) prescribe.
	// Every step therefore factorizes exactly once per Newton iteration.
	if e.opts.Skews {
		e.zeroZ()
		e.ev.AddSkewSens(t1, e.zsVec, e.zhVec)
		if clocked {
			mark = e.sample.now()
		}
		switch e.opts.Method {
		case TRAP:
			e.sensTrap(alpha)
		default:
			e.sensBE(alpha)
		}
		if clocked {
			e.sample.sens += e.sample.now() - mark
		}
	}

	if e.opts.Method == TRAP {
		for i := 0; i < n; i++ {
			e.qdotPrev[i] = alpha*(e.ev.Q[i]-e.qPrev[i]) - e.qdotPrev[i]
		}
	}
	copy(e.qPrev, e.ev.Q)
	if e.opts.Skews {
		copy(e.cPrev.Val, e.ev.C.Val)
	}
	return nil
}

// sensBE advances the BE-discretized sensitivities (paper eq. (11)/(13)):
// (C/Δt + G)·m = (C_prev/Δt)·m_prev − ∂src/∂τ. The solves back-substitute
// against the last Newton iteration's factorization.
func (e *Engine) sensBE(alpha float64) {
	n := e.c.N()
	for i := 0; i < n; i++ {
		e.rhsS[i] = -e.zsVec[i]
	}
	e.cPrev.MulVecAdd(alpha, e.ms, e.rhsS)
	e.lu.Solve(e.rhsS, e.ms)

	for i := 0; i < n; i++ {
		e.rhsS[i] = -e.zhVec[i]
	}
	e.cPrev.MulVecAdd(alpha, e.mh, e.rhsS)
	e.lu.Solve(e.rhsS, e.mh)
	e.stats.SensSolves += 2
}

// sensTrap advances the TRAP-discretized sensitivities:
// (2C/Δt + G)·m = (2C_prev/Δt)·m_prev + mdot_prev − ∂src/∂τ, with the
// derivative memory mdot = d(q̇)/dτ propagated like q̇ itself.
func (e *Engine) sensTrap(alpha float64) {
	e.sensTrapOne(alpha, e.ms, e.msdotPrev, e.zsVec)
	e.sensTrapOne(alpha, e.mh, e.mhdot, e.zhVec)
	e.stats.SensSolves += 2
}

func (e *Engine) sensTrapOne(alpha float64, m, mdot, z []float64) {
	n := e.c.N()
	e.cPrev.MulVec(m, e.scrA) // C_prev·m_prev
	for i := 0; i < n; i++ {
		e.rhsS[i] = alpha*e.scrA[i] + mdot[i] - z[i]
	}
	e.lu.Solve(e.rhsS, m)
	e.ev.C.MulVec(m, e.scrB) // C_new·m_new
	for i := 0; i < n; i++ {
		mdot[i] = alpha*(e.scrB[i]-e.scrA[i]) - mdot[i]
	}
}
