package latchchar

import (
	"context"
	"errors"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"latchchar/internal/cli"
)

// sigintAfterGrads wraps a Problem and raises SIGINT at this process after a
// fixed number of gradient evaluations — the deterministic stand-in for a
// user pressing ^C mid-trace. It then waits until the signal has canceled
// ctx, the cli.SignalContext the trace runs under: os/signal delivers on a
// goroutine of its own, which on one CPU the trace could otherwise outrun to
// its last point.
type sigintAfterGrads struct {
	Problem
	ctx   context.Context
	after int32
	count atomic.Int32
	t     *testing.T
}

func (s *sigintAfterGrads) EvalGrad(tauS, tauH float64) (h, dhdS, dhdH float64, err error) {
	if s.count.Add(1) == s.after {
		if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
			s.t.Errorf("raising SIGINT: %v", err)
		}
		select {
		case <-s.ctx.Done():
		case <-time.After(10 * time.Second):
			s.t.Errorf("SIGINT did not cancel the signal context within 10 s")
		}
	}
	return s.Problem.EvalGrad(tauS, tauH)
}

// TestSIGINTMidTracePartialContour: the cli.SignalContext handler turns a
// real first SIGINT into context cancellation, and the engine hands back the
// partial contour — the end-to-end contract behind "^C stops cleanly".
// (The companion internal/cli tests cover the second-SIGINT hard exit.)
func TestSIGINTMidTracePartialContour(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization-scale transients")
	}
	if runtime.GOOS == "windows" {
		t.Skip("POSIX signal delivery")
	}
	ev, err := NewEvaluator(TSPCCell(DefaultProcess(), DefaultTiming()), EvalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	seed, err := FindSeed(ev, SeedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Register the handler before any signal can fire: SignalContext installs
	// the registration synchronously, so the in-trace SIGINT below is caught.
	ctx, stop := cli.SignalContext()
	defer stop()
	p := &sigintAfterGrads{Problem: ev, ctx: ctx, after: 8, t: t}
	ct, err := TraceContourCtx(ctx, p, seed.TauS, seed.TauH, TraceOptions{
		Step: 5e-12, MaxPoints: 40,
		Bounds: Rect{MinS: 1e-12, MaxS: 1e-9, MinH: 1e-12, MaxH: 1e-9},
	})
	if err == nil {
		t.Fatal("SIGINT-canceled trace returned no error")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("error does not wrap ErrCanceled: %v", err)
	}
	if ct == nil {
		t.Fatal("SIGINT-canceled trace dropped the partial contour")
	}
	if len(ct.Points) == 0 || len(ct.Points) >= 40 {
		t.Fatalf("partial contour has %d points, want 0 < n < 40", len(ct.Points))
	}
	select {
	case <-ctx.Done():
	default:
		t.Fatal("signal context not canceled after SIGINT")
	}
}
