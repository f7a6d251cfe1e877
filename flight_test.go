package latchchar

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"latchchar/internal/cli"
	"latchchar/internal/core"
	"latchchar/internal/obs"
)

// A ^C mid-trace must leave a usable post-mortem: the flight recorder's
// bounded window dumps as a tracecheck-valid JSONL stream whose header names
// the cancellation and whose events all carry the run's correlation ID —
// the same machinery the daemon uses for timed-out jobs, driven through a
// real SIGINT like TestSIGINTMidTracePartialContour.
func TestSIGINTMidTraceFlightDump(t *testing.T) {
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
	ctx, stop := cli.SignalContext()
	defer stop()
	const corr = "corr-sigint-dump"
	run := NewObsRun(WithObsCorr(corr))
	rec := NewFlightRecorder(256)
	run.AddSink(rec)
	p := &sigintAfterGrads{Problem: ev, ctx: ctx, after: 8, t: t}
	_, err = TraceContourCtx(ctx, p, seed.TauS, seed.TauH, TraceOptions{
		Step: 5e-12, MaxPoints: 40,
		Bounds: Rect{MinS: 1e-12, MaxS: 1e-9, MinH: 1e-12, MaxH: 1e-9},
		Obs:    run,
	})
	if err == nil {
		t.Fatal("SIGINT-canceled trace returned no error")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("error does not wrap ErrCanceled: %v", err)
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("flight recorder captured nothing")
	}

	var buf bytes.Buffer
	meta := FlightDumpMeta{Corr: corr, Job: "sigint-test", Reason: "canceled", Err: err.Error()}
	if err := rec.WriteDump(&buf, meta, FlightErrorEvent(err)); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateObsDump(events); err != nil {
		t.Fatalf("dump fails validation: %v", err)
	}
	head := events[0]
	if head.Kind != obs.KindDumpMeta || head.Reason != "canceled" || head.Job != "sigint-test" {
		t.Fatalf("dump header = %+v", head)
	}
	for i, e := range events {
		if e.Corr != corr {
			t.Fatalf("event %d (%s) corr = %q, want %q", i, e.Kind, e.Corr, corr)
		}
	}
	// The synthesized error event closes the dump and names the canceled op.
	tail := events[len(events)-1]
	if tail.Kind != obs.KindError {
		t.Fatalf("dump tail kind = %q, want error", tail.Kind)
	}
	if tail.Op == "" {
		t.Error("error event missing the canceled op")
	}
	// The window recorded real tracing work: at least one step span.
	steps := 0
	for _, e := range events {
		if e.Kind == obs.KindSpanBegin && e.Name == obs.SpanStep {
			steps++
		}
	}
	if steps == 0 {
		t.Error("dump window has no step spans")
	}
}

// FlightErrorEvent must expand a convergence failure into the iterate ring
// and step schedule, pass cancellation through with the op, and map nil to
// nil (no error event appended to the dump).
func TestFlightErrorEventShapes(t *testing.T) {
	if ev := FlightErrorEvent(nil); ev != nil {
		t.Fatalf("nil error produced event %+v", ev)
	}
	ce := &core.ConvergenceError{
		Op:       "corrector",
		Iterates: []core.Point{{TauS: 1e-12, TauH: 2e-12, H: 0.5}, {TauS: 3e-12, TauH: 4e-12, H: 0.25}},
		StepLens: []float64{5e-12, 2.5e-12},
		Err:      errors.New("max iterations"),
	}
	ev := FlightErrorEvent(ce)
	if ev == nil || ev.Op != "corrector" {
		t.Fatalf("event = %+v", ev)
	}
	if len(ev.Iterates) != 2 || ev.Iterates[1].TauS != 3e-12 || ev.Iterates[0].H != 0.5 {
		t.Errorf("iterate ring not preserved: %+v", ev.Iterates)
	}
	if len(ev.StepLens) != 2 || ev.StepLens[0] != 5e-12 {
		t.Errorf("step schedule not preserved: %+v", ev.StepLens)
	}
	if ev.Msg == "" {
		t.Error("error event missing message")
	}
}
