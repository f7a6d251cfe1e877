package stf

import (
	"context"
	"errors"
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

// checkpointIndex returns the grid index of e's checkpoint after checking
// that it is the last grid point strictly before the leading data ramp at
// τs = MaxSetupSkew.
func checkpointIndex(t *testing.T, e *Evaluator) int {
	t.Helper()
	pts := e.grid.Points()
	ramp := e.inst.Data.SupportStart(e.cfg.MaxSetupSkew)
	k := sort.SearchFloat64s(pts, e.cpT)
	if e.cp == nil || k < 1 || k+1 >= len(pts) || pts[k] != e.cpT || !(pts[k] < ramp) || pts[k+1] < ramp {
		t.Fatalf("checkpoint at %g (grid index %d) is not the last grid point before the data ramp at %g", e.cpT, k, ramp)
	}
	return k
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

// TestCheckpointEligibility walks the edges of resuming: the first eligible
// run saves the checkpoint and later ones resume there, but a run whose
// leading ramp starts before it (τs above MaxSetupSkew), or whose trailing
// ramp does (τh far negative), integrates from x0, and so does a block with
// one such lane. A canceled run saves nothing: the next run builds the
// checkpoint. Every run, resumed or not, equals a bare engine's run from x0
// bit for bit, and the published work keeps one LU per Newton iteration.
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
			k := checkpointIndex(t, e)
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
			// resumed runs fn and requires it to have resumed lanes·k lane-steps.
			resumed := func(what string, lanes int, fn func()) {
				t.Helper()
				before := e.Work.ResumedSteps
				fn()
				if got := e.Work.ResumedSteps - before; got != lanes*k {
					t.Errorf("%s resumed %d lane-steps, want %d", what, got, lanes*k)
				}
			}
			grad := func(tauS, tauH float64) func() {
				return func() {
					t.Helper()
					h, ds, dh, err := e.EvalGrad(tauS, tauH)
					if err != nil {
						t.Fatal(err)
					}
					same("EvalGrad", [3]float64{h, ds, dh}, want(tauS, tauH))
				}
			}
			block := func(tauS, tauH []float64) func() {
				return func() {
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
				}
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			e.SetContext(ctx)
			resumed("a canceled run", 0, func() {
				if _, err := e.Eval(400e-12, 300e-12); !errors.Is(err, transient.ErrCanceled) {
					t.Fatalf("err = %v, want ErrCanceled", err)
				}
			})
			e.SetContext(nil)
			resumed("the first run", 0, grad(400e-12, 300e-12))
			resumed("the second run", 1, grad(300e-12, 250e-12))

			early := e.cfg.MaxSetupSkew + 2*e.cfg.FineStep
			if !(e.inst.Data.SupportStart(early) < e.cpT) {
				t.Fatalf("τs = %g starts its ramp at %g, not before the checkpoint %g", early, e.inst.Data.SupportStart(early), e.cpT)
			}
			resumed("an early leading ramp", 0, grad(early, 300e-12))
			trail := e.cpT - inst.Edge50
			resumed("an early trailing ramp", 0, grad(400e-12, trail))
			resumed("a block with an early lane", 0, block([]float64{400e-12, early, 300e-12}, []float64{300e-12, 250e-12, 200e-12}))
			resumed("a block of eligible lanes", 3, block([]float64{400e-12, 350e-12, 300e-12}, []float64{300e-12, 250e-12, 200e-12}))
			resumed("a one-lane block", 1, block([]float64{330e-12}, []float64{280e-12}))

			if got := run.Counter(obs.CtrResumedSteps); got != int64(e.Work.ResumedSteps) {
				t.Errorf("published %d resumed steps, the evaluator counted %d", got, e.Work.ResumedSteps)
			}
			checkLUAccounts(t, run)
		})
	}
}
