package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// scripted is h = τs + τh − 1 with gradient (1, 1), except that gradient
// evaluation number failAt (1-based) returns err, and evaluations whose
// number is in stuck report a constant residual of 1 instead. hook, when
// set, runs at the start of every gradient evaluation.
type scripted struct {
	failAt int
	err    error
	stuck  bool
	hook   func(call int)
	calls  int
}

func (s *scripted) Eval(tauS, tauH float64) (float64, error) {
	h, _, _, err := s.EvalGrad(tauS, tauH)
	return h, err
}

func (s *scripted) EvalGrad(tauS, tauH float64) (float64, float64, float64, error) {
	s.calls++
	if s.hook != nil {
		s.hook(s.calls)
	}
	if s.calls == s.failAt {
		return 0, 0, 0, s.err
	}
	if s.stuck {
		return 1, 1, 0, nil
	}
	return tauS + tauH - 1, 1, 1, nil
}

// TestSolveMPNRErrorChain pins the error chain, the last iterate and the
// gradient-evaluation count SolveMPNR reports for each way a solve can
// fail: an evaluation error, an exhausted iteration budget, a context
// canceled between evaluations and one canceled inside an evaluation.
func TestSolveMPNRErrorChain(t *testing.T) {
	boom := errors.New("boom")
	opts := MPNROptions{MaxIter: 4, MaxStep: 0.25}
	first := Point{TauS: 2, TauH: 2, H: 3, DhdS: 1, DhdH: 1, CorrectorIters: 1}
	stuckAt := func(iter int) Point {
		return Point{TauS: 2 - 0.25*float64(iter-1), TauH: 2, H: 1, DhdS: 1, CorrectorIters: iter}
	}

	cases := []struct {
		name      string
		setup     func(cancel context.CancelCauseFunc) *scripted
		gradEvals int
		at        Point
		iterates  int
		is        []error
		canceled  bool
		msg       string
	}{
		{
			name:      "fails on 2nd evaluation",
			setup:     func(context.CancelCauseFunc) *scripted { return &scripted{failAt: 2, err: boom} },
			gradEvals: 1,
			at:        first,
			iterates:  1,
			is:        []error{boom},
			msg:       "core: mpnr failed near (τs=2 s, τh=2 s), last |h|=3 after 1 iterates: boom",
		},
		{
			name:      "never converges",
			setup:     func(context.CancelCauseFunc) *scripted { return &scripted{stuck: true} },
			gradEvals: 4,
			at:        stuckAt(4),
			iterates:  4,
			is:        []error{ErrNoConvergence},
			msg:       "core: mpnr failed near (τs=1.25 s, τh=2 s), last |h|=1 after 4 iterates: core: MPNR did not converge",
		},
		{
			name: "canceled between evaluations",
			setup: func(cancel context.CancelCauseFunc) *scripted {
				return &scripted{stuck: true, hook: func(call int) {
					if call == 2 {
						cancel(nil)
					}
				}}
			},
			gradEvals: 2,
			at:        stuckAt(2),
			is:        []error{ErrCanceled, context.Canceled},
			canceled:  true,
			msg:       "core: mpnr canceled near (τs=1.75 s, τh=2 s): context canceled",
		},
		{
			name: "canceled inside an evaluation",
			setup: func(cancel context.CancelCauseFunc) *scripted {
				return &scripted{failAt: 2, err: fmt.Errorf("transient: step: %w", context.Canceled),
					hook: func(call int) {
						if call == 2 {
							cancel(nil)
						}
					}}
			},
			gradEvals: 1,
			at:        first,
			is:        []error{ErrCanceled, context.Canceled},
			canceled:  true,
			msg:       "core: mpnr canceled near (τs=2 s, τh=2 s): transient: step: context canceled",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancelCause(context.Background())
			defer cancel(nil)
			p := tc.setup(cancel)
			res, err := SolveMPNRCtx(ctx, p, 2, 2, opts)
			if err == nil {
				t.Fatal("solve succeeded")
			}
			if got := err.Error(); got != tc.msg {
				t.Errorf("err = %q\nwant  %q", got, tc.msg)
			}
			for _, target := range tc.is {
				if !errors.Is(err, target) {
					t.Errorf("errors.Is(err, %v) = false", target)
				}
			}
			if res.GradEvals != tc.gradEvals || p.calls < tc.gradEvals {
				t.Errorf("GradEvals = %d (problem saw %d calls), want %d", res.GradEvals, p.calls, tc.gradEvals)
			}
			if res.Converged {
				t.Error("failed solve reports Converged")
			}
			if res.Point != tc.at {
				t.Errorf("result point = %+v, want %+v", res.Point, tc.at)
			}
			if tc.canceled {
				var ce *CanceledError
				if !errors.As(err, &ce) || ce.Op != "mpnr" || ce.At != tc.at || ce.Points != 0 {
					t.Fatalf("err = %#v, want *CanceledError{Op: mpnr, At: %+v}", err, tc.at)
				}
				return
			}
			var ce *ConvergenceError
			if !errors.As(err, &ce) || ce.Op != "mpnr" || ce.At != tc.at || ce.StepLens != nil {
				t.Fatalf("err = %#v, want *ConvergenceError{Op: mpnr, At: %+v}", err, tc.at)
			}
			if len(ce.Iterates) != tc.iterates || !reflect.DeepEqual(ce.Iterates[len(ce.Iterates)-1], tc.at) {
				t.Errorf("iterates = %+v, want %d ending at %+v", ce.Iterates, tc.iterates, tc.at)
			}
		})
	}
}
