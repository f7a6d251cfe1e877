package stf

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"latchchar/internal/netlist"
	"latchchar/internal/obs"
	"latchchar/internal/registers"
	"latchchar/internal/transient"
)

// TestFineWindowFollowsTheDataRamp gives the tspc deck a 0.6 ns data rise
// while its clock keeps 0.1 ns. The fine phase must start FineMargin before
// the leading data ramp at τs = MaxSetupSkew, which a window placed by the
// clock's rise would put 50 ps inside the last coarse step: every step
// ending after that start must be a fine one.
func TestFineWindowFollowsTheDataRamp(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "netlists", "tspc.cir"))
	if err != nil {
		t.Fatal(err)
	}
	const data = "DATA(11.05n 2.5 0 0.1n 0.1n)"
	if !strings.Contains(string(src), data) {
		t.Fatalf("tspc.cir no longer carries %s", data)
	}
	deck, err := netlist.ParseString(strings.Replace(string(src), data, "DATA(11.05n 2.5 0 0.6n 0.1n)", 1))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := deck.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(inst, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := e.cfg
	ramp := inst.Data.SupportStart(c.MaxSetupSkew)
	pts := e.Grid().Points()
	for i := 1; i < len(pts); i++ {
		if pts[i] > ramp-c.FineMargin*(1-1e-6) && pts[i]-pts[i-1] > c.FineStep*(1+1e-9) {
			t.Fatalf("the %.4g ps step ending at %.6g ns is coarse; the data ramp at τs = MaxSetupSkew starts at %.6g ns",
				(pts[i]-pts[i-1])*1e12, pts[i]*1e9, ramp*1e9)
		}
	}
}

// trailStep is the spacing, in fine grid steps, of the rest trail's states.
const trailStep = 4

// trailStart returns the grid index of e's rest trail's first state after
// checking that it is the fine window's first grid point: the last one a
// coarse step reaches.
func trailStart(t *testing.T, e *Evaluator) int {
	t.Helper()
	pts := e.grid.Points()
	k0 := sort.SearchFloat64s(pts, e.fineStart(e.cfg.MaxSetupSkew))
	fine := func(i int) bool { return pts[i+1]-pts[i] <= e.cfg.FineStep*(1+1e-9) }
	if k0 < 1 || k0+1 >= len(pts) || fine(k0-1) || !fine(k0) {
		t.Fatalf("the trail starts at grid index %d, not at the fine window's first point", k0)
	}
	return k0
}

// restDepth returns the grid index a run whose data ramps start at until
// resumes at once the trail reaches it: the last grid point strictly before
// until among the trail's, every trailStep-th from k0; 0, a run from x0,
// when until comes no later than k0.
func restDepth(e *Evaluator, k0 int, until float64) int {
	pts := e.grid.Points()
	r := sort.Search(len(pts), func(i int) bool { return !(pts[i] < until) }) - 1
	if r < k0 {
		return 0
	}
	return k0 + trailStep*((r-k0)/trailStep)
}

// checkLUAccounts requires the counters published to run to hold one LU
// factorization per Newton iteration.
func checkLUAccounts(t *testing.T, run *obs.Run) {
	t.Helper()
	iters := run.Counter(obs.CtrNewtonIters)
	lu := run.Counter(obs.CtrLUFactor) + run.Counter(obs.CtrLURefactor)
	if iters == 0 || iters != lu {
		t.Errorf("newton_iters = %d, lu_factorizations + lu_refactorizations = %d", iters, lu)
	}
}

// trailRun is an evaluation at skew pairs, run by fn.
type trailRun struct {
	tauS, tauH []float64
	fn         func()
}

// TestCheckpointEligibility walks the edges of the rest trail on tspc. A
// canceled first run saves nothing; the first run builds the trail up to
// its own leading ramp. Every later run resumes at the deepest stored point
// strictly before its own earliest ramp: a run whose ramp comes later than
// the trail reaches resumes at its end and extends it, one whose ramp comes
// earlier resumes inside it, and one whose ramp comes before the trail's
// start — τs more than FineMargin above MaxSetupSkew, or τh so negative that
// the trailing ramp comes first — integrates from x0, and so does a block
// with one such lane. Every run, resumed or not, equals a bare engine's run
// from x0 bit for bit, and the published work keeps one LU per Newton
// iteration.
func TestCheckpointEligibility(t *testing.T) {
	for _, m := range []transient.Method{transient.BE, transient.TRAP} {
		t.Run(m.String(), func(t *testing.T) {
			cell, err := registers.ByName("tspc")
			if err != nil {
				t.Fatal(err)
			}
			inst, err := cell.Build()
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEvaluator(inst, Config{Method: m})
			if err != nil {
				t.Fatal(err)
			}
			run := obs.New()
			e.SetObs(run)
			k0 := trailStart(t, e)
			ref := transient.NewEngine(inst.Circuit, e.cfg.transientOptions(true))
			want := func(tauS, tauH float64) [3]float64 {
				t.Helper()
				inst.Data.SetSkews(tauS, tauH)
				res, err := ref.Run(e.x0, e.grid)
				if err != nil {
					t.Fatalf("from x0 at (%g, %g): %v", tauS, tauH, err)
				}
				out := inst.Out
				return [3]float64{res.X[out] - e.cal.R, res.Ms[out], res.Mh[out]}
			}
			same := func(what string, got, w [3]float64) {
				t.Helper()
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(w[i]) {
						t.Errorf("%s: (%v, %v, %v), from x0 (%v, %v, %v)", what, got[0], got[1], got[2], w[0], w[1], w[2])
						return
					}
				}
			}
			// end is the trail's deepest stored grid index, 0 while it is
			// empty. resumes runs fn at the skew pairs, requires it to resume
			// each of its lanes at the deepest stored point before their
			// earliest ramp, and records how far the run extended the trail.
			end := 0
			resumes := func(what string, r trailRun) {
				t.Helper()
				d := restDepth(e, k0, e.restUntil(r.tauS, r.tauH))
				before := e.Work.ResumedSteps
				r.fn()
				if got, want := e.Work.ResumedSteps-before, len(r.tauS)*min(d, end); got != want {
					t.Errorf("%s resumed %d lane-steps, want %d", what, got, want)
				}
				t.Logf("%s: resumed at grid index %d of %d stored", what, min(d, end), end)
				end = max(end, d)
			}
			grad := func(tauS, tauH float64) trailRun {
				return trailRun{[]float64{tauS}, []float64{tauH}, func() {
					t.Helper()
					h, ds, dh, err := e.EvalGrad(tauS, tauH)
					if err != nil {
						t.Fatal(err)
					}
					same("EvalGrad", [3]float64{h, ds, dh}, want(tauS, tauH))
				}}
			}
			block := func(tauS, tauH []float64) trailRun {
				return trailRun{tauS, tauH, func() {
					t.Helper()
					h, ds, dh, errs, err := e.EvalGradBlock(tauS, tauH)
					if err != nil {
						t.Fatal(err)
					}
					for i := range tauS {
						if errs[i] != nil {
							t.Fatalf("lane %d: %v", i, errs[i])
						}
						same("EvalGradBlock lane", [3]float64{h[i], ds[i], dh[i]}, want(tauS[i], tauH[i]))
					}
				}}
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			e.SetContext(ctx)
			before := e.Work.ResumedSteps
			if _, err := e.Eval(400e-12, 300e-12); !errors.Is(err, transient.ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if e.Work.ResumedSteps != before {
				t.Errorf("a run canceled before its first step resumed %d lane-steps", e.Work.ResumedSteps-before)
			}
			e.SetContext(nil)

			resumes("the first run", grad(400e-12, 300e-12))
			resumes("a later ramp", grad(300e-12, 250e-12))
			resumes("an earlier ramp", grad(500e-12, 300e-12))
			pts, d := e.grid.Points(), inst.Data
			inside := pts[k0+22] - d.Edge50 + d.Fall/2 // the trailing ramp starts at grid index k0+22
			if got := restDepth(e, k0, d.RestUntil(300e-12, inside)); got != k0+5*trailStep {
				t.Fatalf("τh = %g resumes at grid index %d, want %d", inside, got, k0+5*trailStep)
			}
			resumes("a trailing ramp inside the trail", grad(300e-12, inside))

			early := e.cfg.MaxSetupSkew + e.cfg.FineMargin + 2*e.cfg.FineStep
			if d := restDepth(e, k0, inst.Data.RestUntil(early, 300e-12)); d != 0 {
				t.Fatalf("τs = %g resumes at grid index %d, not before the trail", early, d)
			}
			resumes("an early leading ramp", grad(early, 300e-12))
			resumes("an early trailing ramp", grad(400e-12, pts[k0]-d.Edge50))
			resumes("a block with an early lane", block([]float64{400e-12, early, 300e-12}, []float64{300e-12, 250e-12, 200e-12}))
			resumes("a block of eligible lanes", block([]float64{400e-12, 350e-12, 300e-12}, []float64{300e-12, 250e-12, 200e-12}))
			resumes("a block extending the trail", block([]float64{200e-12, 150e-12, 250e-12}, []float64{300e-12, 250e-12, 200e-12}))
			resumes("a one-lane block", block([]float64{330e-12}, []float64{280e-12}))
			if end <= k0 {
				t.Errorf("the trail never grew past its first state at grid index %d", k0)
			}

			if got := run.Counter(obs.CtrResumedSteps); got != int64(e.Work.ResumedSteps) {
				t.Errorf("published %d resumed steps, the evaluator counted %d", got, e.Work.ResumedSteps)
			}
			checkLUAccounts(t, run)
		})
	}
}

// TestRestTrailIsSharedBitForBit builds a rest trail with one kind of run
// and resumes the other kind from it, on every built-in cell and
// examples/netlists deck, in BE and TRAP, through scalar runs, and through
// 4-lane gradient blocks and EvalBlock's plain runs of 4 pairs:
//
//   - plain runs extend the trail and gradient runs resume from it;
//   - gradient runs extend the trail and plain runs resume from it;
//   - a run that fails, or is canceled, partway through the rest phase keeps
//     the states it saved: the next run resumes at the deepest of them and
//     extends the trail, and the run after that resumes at its end.
//
// Every run resumes at the deepest stored point before its earliest ramp,
// and every h, ∂h/∂τs and ∂h/∂τh equals a bare engine's run from x0 bit for
// bit.
func TestRestTrailIsSharedBitForBit(t *testing.T) {
	if testing.Short() {
		t.Skip("transient simulations in -short mode")
	}
	subjects := cellsAndDecks(t)
	// The deep runs' data ramps start latest, so they take the trail
	// furthest; the back runs' ramps all start before the deep ones'.
	deepS, deepH := []float64{60e-12, 90e-12, 120e-12, 150e-12}, []float64{700e-12, 650e-12, 600e-12, 550e-12}
	backS, backH := []float64{300e-12, 450e-12, 200e-12, 600e-12}, []float64{250e-12, 150e-12, 400e-12, 300e-12}

	for _, s := range subjects {
		for _, m := range []transient.Method{transient.BE, transient.TRAP} {
			t.Run(s.name+"/"+m.String(), func(t *testing.T) {
				inst, err := s.build()
				if err != nil {
					t.Fatal(err)
				}
				first, err := NewEvaluator(inst, Config{Method: m})
				if err != nil {
					t.Fatal(err)
				}
				cal := first.Calibration()
				fresh := func() *Evaluator {
					t.Helper()
					e, err := NewEvaluatorWithCalibration(inst, Config{Method: m}, cal)
					if err != nil {
						t.Fatal(err)
					}
					return e
				}
				k0 := trailStart(t, first)
				ref := transient.NewEngine(inst.Circuit, first.cfg.transientOptions(true))
				refs := map[[2]float64][3]float64{}
				want := func(tauS, tauH float64) [3]float64 {
					t.Helper()
					key := [2]float64{tauS, tauH}
					if w, ok := refs[key]; ok {
						return w
					}
					inst.Data.SetSkews(tauS, tauH)
					res, err := ref.Run(first.x0, first.grid)
					if err != nil {
						t.Fatalf("from x0 at (%g, %g): %v", tauS, tauH, err)
					}
					out := inst.Out
					refs[key] = [3]float64{res.X[out] - cal.R, res.Ms[out], res.Mh[out]}
					return refs[key]
				}

				for _, lanes := range []int{1, 4} {
					// eval runs the pairs as scalar runs or one block, of the
					// kind grad, checks every result against the run from x0
					// and every resume depth against the trail's end, which
					// it advances.
					eval := func(what string, e *Evaluator, end *int, grad bool, tauS, tauH []float64) {
						t.Helper()
						what = fmt.Sprintf("%d-lane %s", lanes, what)
						check := func(i int, h, ds, dh float64) {
							t.Helper()
							w := want(tauS[i], tauH[i])
							got := [3]float64{h, ds, dh}
							if !grad {
								got[1], got[2] = w[1], w[2]
							}
							for j := range got {
								if math.Float64bits(got[j]) != math.Float64bits(w[j]) {
									t.Fatalf("%s at (%g, %g): (%v, %v, %v), from x0 (%v, %v, %v)",
										what, tauS[i], tauH[i], got[0], got[1], got[2], w[0], w[1], w[2])
								}
							}
						}
						resumed := func(pairs int, until float64, fn func()) {
							t.Helper()
							d := restDepth(e, k0, until)
							before := e.Work.ResumedSteps
							fn()
							if got, want := e.Work.ResumedSteps-before, pairs*min(d, *end); got != want {
								t.Errorf("%s resumed %d lane-steps, want %d", what, got, want)
							}
							*end = max(*end, d)
						}
						if lanes == 1 {
							for i := range tauS {
								resumed(1, inst.Data.RestUntil(tauS[i], tauH[i]), func() {
									if grad {
										h, ds, dh, err := e.EvalGrad(tauS[i], tauH[i])
										if err != nil {
											t.Fatal(err)
										}
										check(i, h, ds, dh)
										return
									}
									h, err := e.Eval(tauS[i], tauH[i])
									if err != nil {
										t.Fatal(err)
									}
									check(i, h, 0, 0)
								})
							}
							return
						}
						if !grad {
							// EvalBlock runs the pairs one after another,
							// as Eval does.
							want, before := 0, e.Work.ResumedSteps
							for i := range tauS {
								d := restDepth(e, k0, inst.Data.RestUntil(tauS[i], tauH[i]))
								want += min(d, *end)
								*end = max(*end, d)
							}
							h, err := e.EvalBlock(tauS, tauH)
							if err != nil {
								t.Fatal(err)
							}
							if got := e.Work.ResumedSteps - before; got != want {
								t.Errorf("%s resumed %d lane-steps, want %d", what, got, want)
							}
							for i := range tauS {
								check(i, h[i], 0, 0)
							}
							return
						}
						resumed(len(tauS), e.restUntil(tauS, tauH), func() {
							h, ds, dh, errs, err := e.EvalGradBlock(tauS, tauH)
							if err != nil {
								t.Fatal(err)
							}
							for i := range tauS {
								if errs[i] != nil {
									t.Fatalf("%s lane %d: %v", what, i, errs[i])
								}
								check(i, h[i], ds[i], dh[i])
							}
						})
					}
					for _, gradFirst := range []bool{false, true} {
						e, end := fresh(), 0
						eval("extending run", e, &end, gradFirst, deepS, deepH)
						before := e.Work.ResumedSteps
						eval("resuming run", e, &end, !gradFirst, backS, backH)
						if e.Work.ResumedSteps == before {
							t.Errorf("%d-lane runs resumed nothing from a trail built by runs with gradients %v", lanes, gradFirst)
						}
					}

					// Cut a deep run, plain and scalar or a gradient block,
					// off at step kc, a trail point halfway along the trail
					// it would build: fail it by poisoning the skews before
					// step kc, so that step's Newton iteration fails and the
					// trail ends at the point before it, or cancel it once
					// step kc is done, so the trail ends at kc.
					pts := first.grid.Points()
					kc := k0 + trailStep*max(2, (restDepth(first, k0, first.restUntil(deepS[:lanes], deepH[:lanes]))-k0)/trailStep/2)
					for _, cancels := range []bool{false, true} {
						e := fresh()
						ctx, cancel := context.WithCancel(context.Background())
						cut := func() {
							if cancels {
								cancel()
							} else {
								inst.Data.SetSkews(math.NaN(), math.NaN())
							}
						}
						var err error
						if lanes == 1 {
							// A stop condition that never stops makes the
							// cut after step kc−1 (fail) or kc (cancel).
							at := pts[kc-1]
							if cancels {
								at = pts[kc]
							}
							opts := e.cfg.transientOptions(false)
							opts.Stop = func(_, tb float64, _, _ []float64) bool {
								if tb == at {
									cut()
								}
								return false
							}
							e.engPlain = transient.NewEngine(inst.Circuit, opts)
							e.SetContext(ctx)
							_, err = e.Eval(deepS[0], deepH[0])
						} else {
							// Before the lanes fork, the block calls setLane
							// once before its first step and once before each
							// step: call kc+1 comes before step kc. The
							// context is checked before a step, so a cancel
							// there still lets step kc finish.
							calls := 0
							e.blk = transient.NewBlockEngine(inst.Circuit, e.cfg.transientOptions(true), func(lane int) {
								inst.Data.SetSkews(e.blkS[lane], e.blkH[lane])
								if calls++; calls == kc+1 {
									cut()
								}
							})
							e.SetContext(ctx)
							var errs []error
							if _, _, _, errs, err = e.EvalGradBlock(deepS, deepH); err == nil {
								err = errs[0] // a failed prefix fails every lane
							}
						}
						cancel()
						e.SetContext(nil)
						e.engPlain = transient.NewEngine(inst.Circuit, e.cfg.transientOptions(false))
						e.blk = nil
						switch {
						case cancels && !errors.Is(err, transient.ErrCanceled):
							t.Fatalf("%d-lane run canceled at grid index %d: err = %v, want ErrCanceled", lanes, kc, err)
						case !cancels && !errors.Is(err, transient.ErrNewtonFailure):
							t.Fatalf("%d-lane run failing at grid index %d: err = %v, want a Newton failure", lanes, kc, err)
						}
						end := kc - trailStep
						if cancels {
							end = kc
						}
						what := "failed"
						if cancels {
							what = "canceled"
						}
						eval("run after a "+what+" one", e, &end, true, deepS[:lanes], deepH[:lanes])
						eval("second run after a "+what+" one", e, &end, false, deepS[:lanes], deepH[:lanes])
					}
				}
			})
		}
	}
}

// trailModel is what a test expects an evaluator's rest trail to hold: the
// rest part's deepest state, and the branch's τs and the grid indices of
// its first and deepest states (end < first while it is empty).
type trailModel struct {
	k0, restEnd int
	key         float64
	first, end  int
}

// expect returns the lane-steps the runs at the skew pairs resume on a
// trail the model describes — plain pairs one after another, as Eval and
// EvalBlock run them, or gradient pairs as one block — and updates the
// model with what the runs save when they complete.
func (m *trailModel) expect(e *Evaluator, tauS, tauH []float64, plain bool) int {
	if !plain {
		rd := restDepth(e, m.k0, e.restUntil(tauS, tauH))
		resume := min(rd, m.restEnd)
		m.restEnd = max(m.restEnd, rd)
		return len(tauS) * resume
	}
	total := 0
	for i := range tauS {
		sh := e.share(tauS[i], tauH[i])
		rd := restDepth(e, m.k0, sh.Rest)
		resume := min(rd, m.restEnd)
		bd := 0
		if rd > 0 {
			bd = restDepth(e, m.k0, sh.Branch)
		}
		if bd > rd && m.key == tauS[i] && m.end >= m.first {
			resume = max(resume, min(bd, m.end))
		}
		m.restEnd = max(m.restEnd, rd)
		if bd > rd {
			if m.key != tauS[i] || m.end < m.first {
				m.key, m.first, m.end = tauS[i], rd+trailStep, rd
			}
			m.end = max(m.end, bd)
		}
		total += resume
	}
	return total
}

// TestRestTrailBranchIsSharedBitForBit runs rows of plain runs that share
// one τs, as a brute-force surface's rows do, on every built-in cell and
// examples/netlists deck, in BE and TRAP, through Eval and through
// EvalBlock's runs of 4 pairs, next to scalar and 4-lane gradient runs:
//
//   - τh ascending, then past tf, then descending: every run resumes at the
//     deepest state the rows before it saved strictly before its own
//     earliest trailing ramp, on the branch past the rest part;
//   - a gradient run at the row's τs and one at a new τs resume from the
//     rest part only and leave the branch alone, and a plain run at a new τs
//     drops it: the old τs then resumes from the rest part;
//   - a run that fails, or is canceled, partway through the branch keeps
//     the states it saved: the next run resumes at the deepest of them and
//     extends the branch, and the run after that resumes at its end.
//
// Every run's ResumedSteps equals that depth, and every h, ∂h/∂τs and
// ∂h/∂τh equals a bare engine's run from x0 bit for bit.
func TestRestTrailBranchIsSharedBitForBit(t *testing.T) {
	if testing.Short() {
		t.Skip("transient simulations in -short mode")
	}
	subjects := cellsAndDecks(t)
	const rowS, newS = 300e-12, 250e-12
	ascH := []float64{10e-12, 60e-12, 120e-12, 200e-12, 300e-12, 450e-12, 600e-12, 800e-12}

	for _, s := range subjects {
		for _, m := range []transient.Method{transient.BE, transient.TRAP} {
			t.Run(s.name+"/"+m.String(), func(t *testing.T) {
				inst, err := s.build()
				if err != nil {
					t.Fatal(err)
				}
				first, err := NewEvaluator(inst, Config{Method: m})
				if err != nil {
					t.Fatal(err)
				}
				cal := first.Calibration()
				fresh := func() *Evaluator {
					t.Helper()
					e, err := NewEvaluatorWithCalibration(inst, Config{Method: m}, cal)
					if err != nil {
						t.Fatal(err)
					}
					return e
				}
				k0 := trailStart(t, first)
				d := inst.Data
				// Trailing ramps that start past tf: the row's runs there
				// share the whole grid.
				pastH := cal.Tf - d.Edge50 + d.Fall
				if d.LeadOnlyUntil(pastH) <= cal.Tf {
					t.Fatalf("τh = %g starts its trailing ramp before tf", pastH)
				}
				ref := transient.NewEngine(inst.Circuit, first.cfg.transientOptions(true))
				refs := map[[2]float64][3]float64{}
				want := func(tauS, tauH float64) [3]float64 {
					t.Helper()
					key := [2]float64{tauS, tauH}
					if w, ok := refs[key]; ok {
						return w
					}
					inst.Data.SetSkews(tauS, tauH)
					res, err := ref.Run(first.x0, first.grid)
					if err != nil {
						t.Fatalf("from x0 at (%g, %g): %v", tauS, tauH, err)
					}
					out := inst.Out
					refs[key] = [3]float64{res.X[out] - cal.R, res.Ms[out], res.Mh[out]}
					return refs[key]
				}

				for _, lanes := range []int{1, 4} {
					// eval runs the pairs, lanes at a time, as plain or
					// gradient runs, and checks each run's resume depth
					// against the model and every result against the run
					// from x0.
					eval := func(what string, e *Evaluator, tm *trailModel, plain bool, tauS, tauH []float64) {
						t.Helper()
						for lo := 0; lo < len(tauS); lo += lanes {
							ss, hs := tauS[lo:lo+lanes], tauH[lo:lo+lanes]
							what := fmt.Sprintf("%d-lane %s at τs = %g, τh = %g", lanes, what, ss[0], hs)
							resumed := tm.expect(e, ss, hs, plain)
							before := e.Work.ResumedSteps
							var h, ds, dh []float64
							if plain {
								var err error
								if h, err = e.EvalBlock(ss, hs); err != nil {
									t.Fatalf("%s: %v", what, err)
								}
							} else {
								var errs []error
								var err error
								if h, ds, dh, errs, err = e.EvalGradBlock(ss, hs); err != nil {
									t.Fatalf("%s: %v", what, err)
								}
								for i := range errs {
									if errs[i] != nil {
										t.Fatalf("%s lane %d: %v", what, i, errs[i])
									}
								}
							}
							if got := e.Work.ResumedSteps - before; got != resumed {
								t.Errorf("%s resumed %d lane-steps, want %d", what, got, resumed)
							}
							for i := range ss {
								w := want(ss[i], hs[i])
								got := [3]float64{h[i], w[1], w[2]}
								if !plain {
									got[1], got[2] = ds[i], dh[i]
								}
								for j := range got {
									if math.Float64bits(got[j]) != math.Float64bits(w[j]) {
										t.Fatalf("%s lane %d: (%v, %v, %v), from x0 (%v, %v, %v)",
											what, i, got[0], got[1], got[2], w[0], w[1], w[2])
									}
								}
							}
						}
					}
					row := func(h ...float64) ([]float64, []float64) {
						s := make([]float64, len(h))
						for i := range s {
							s[i] = rowS
						}
						return s, h
					}
					past := []float64{pastH, pastH + 10e-12, pastH + 20e-12, pastH + 30e-12}
					desc := make([]float64, len(ascH))
					for i, h := range ascH {
						desc[len(ascH)-1-i] = h
					}

					e, tm := fresh(), &trailModel{k0: k0}
					rs, rh := row(ascH...)
					eval("ascending row", e, tm, true, rs, rh)
					rs, rh = row(past...)
					eval("row past tf", e, tm, true, rs, rh)
					if tm.end < first.grid.Len()-1-trailStep {
						t.Errorf("the branch ends at grid index %d, not at the grid's end %d", tm.end, first.grid.Len()-1)
					}
					rs, rh = row(desc...)
					eval("descending row", e, tm, true, rs, rh)
					before := e.Work.ResumedSteps
					eval("gradient run at the row's τs", e, tm, false, rs[:lanes], rh[:lanes])
					eval("gradient run at a new τs", e, tm, false, []float64{newS, newS, newS, newS}[:lanes], rh[:lanes])
					eval("run at the row's τs after gradient runs", e, tm, true, rs[:lanes], rh[:lanes])
					eval("plain run at a new τs", e, tm, true, []float64{newS, newS, newS, newS}[:lanes], rh[:lanes])
					eval("run at the row's old τs", e, tm, true, rs[:lanes], rh[:lanes])
					if e.Work.ResumedSteps == before {
						t.Errorf("%d-lane runs resumed nothing", lanes)
					}

					if lanes > 1 {
						continue // EvalBlock cuts as Eval does, at its first pair
					}
					// Cut a row's first run off at step kc, a trail point
					// halfway along the branch it would build: fail it by
					// poisoning the skews before step kc, so the branch ends
					// at the point before it, or cancel it once step kc is
					// done, so the branch ends at kc.
					cs, ch := row(800e-12)
					probe := &trailModel{k0: k0}
					probe.expect(first, cs, ch, true)
					if probe.end < probe.first+2*trailStep {
						t.Fatalf("the cut run's branch holds grid indices %d to %d only", probe.first, probe.end)
					}
					pts := first.grid.Points()
					kc := probe.first + trailStep*((probe.end-probe.first)/trailStep/2)
					for _, cancels := range []bool{false, true} {
						e := fresh()
						ctx, cancel := context.WithCancel(context.Background())
						cut := func() {
							if cancels {
								cancel()
							} else {
								inst.Data.SetSkews(math.NaN(), math.NaN())
							}
						}
						at := pts[kc-1]
						if cancels {
							at = pts[kc]
						}
						opts := e.cfg.transientOptions(false)
						opts.Stop = func(_, tb float64, _, _ []float64) bool {
							if tb == at {
								cut()
							}
							return false
						}
						e.engPlain = transient.NewEngine(inst.Circuit, opts)
						e.SetContext(ctx)
						_, err := e.Eval(cs[0], ch[0])
						cancel()
						e.SetContext(nil)
						e.engPlain = transient.NewEngine(inst.Circuit, e.cfg.transientOptions(false))
						what := "failed"
						if cancels {
							what = "canceled"
						}
						switch {
						case cancels && !errors.Is(err, transient.ErrCanceled):
							t.Fatalf("%d-lane run canceled at grid index %d: err = %v, want ErrCanceled", lanes, kc, err)
						case !cancels && !errors.Is(err, transient.ErrNewtonFailure):
							t.Fatalf("%d-lane run failing at grid index %d: err = %v, want a Newton failure", lanes, kc, err)
						}
						tm := *probe
						tm.end = kc - trailStep
						if cancels {
							tm.end = kc
						}
						eval("run after a "+what+" one", e, &tm, true, cs, ch)
						eval("second run after a "+what+" one", e, &tm, true, cs, ch)
					}
				}
			})
		}
	}
}
