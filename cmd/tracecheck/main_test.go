package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"latchchar/internal/obs"
)

// writeDumpFile records a few spans through a small flight-recorder ring and
// writes a post-mortem dump with an error event, returning the path.
func writeDumpFile(t *testing.T, capacity int) string {
	t.Helper()
	run := obs.New(obs.WithCorr("corr-tc"))
	rec := obs.NewRecorder(capacity)
	run.AddSink(rec)
	for i := 0; i < 6; i++ {
		sp := run.StartSpan(obs.SpanStep)
		sp.End()
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	errEv := &obs.Event{
		Msg:      "corrector diverged",
		Op:       "trace",
		Iterates: []obs.Iterate{{TauS: 1e-12, TauH: 2e-12, H: 0.5}},
		StepLens: []float64{5e-12, 2.5e-12},
	}
	meta := obs.DumpMeta{Corr: "corr-tc", Job: "j1", Reason: "failed", Err: "corrector diverged"}
	if err := rec.WriteDump(f, meta, errEv); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDumpModeAcceptsValidDump(t *testing.T) {
	path := writeDumpFile(t, 4) // ring smaller than the event count: truncation
	if err := run([]string{"-dump", path}); err != nil {
		t.Fatalf("tracecheck -dump rejected a valid dump: %v", err)
	}
	// A truncated dump is NOT a valid full trace — the strict mode must say so.
	if err := run([]string{path}); err == nil {
		t.Fatal("strict mode accepted a truncated dump")
	}
}

func TestDumpModeRejectsPlainTrace(t *testing.T) {
	run2 := obs.New()
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	run2.AddSink(sink)
	sp := run2.StartSpan(obs.SpanStep)
	sp.End()
	if err := run2.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// A full trace passes strict mode but has no dump_meta header.
	if err := run([]string{path}); err != nil {
		t.Fatalf("strict mode rejected a valid trace: %v", err)
	}
	if err := run([]string{"-dump", path}); err == nil {
		t.Fatal("-dump accepted a stream without a dump_meta header")
	}
}

func TestCheckDumpReportsHeaderAndIterates(t *testing.T) {
	path := writeDumpFile(t, 4)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := checkDump(&out, events); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, want := range []string{
		"valid dump", "corr corr-tc", "job j1", "reason failed",
		"corrector diverged", "failed op: trace",
		"corrector iterates", "step lengths",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

// TestLUAccountsChecked holds full traces to their run_end accounting: a
// trace whose counters show one LU factorization per Newton iteration
// passes, and the fixture — a gradient transient that factorized once more
// per step than it iterated, 1,356 factorizations against 936 Newton
// iterations — fails, although its event stream is well-formed.
func TestLUAccountsChecked(t *testing.T) {
	balanced := obs.New()
	var buf bytes.Buffer
	balanced.AddSink(obs.NewJSONLSink(&buf))
	sp := balanced.StartSpan(obs.SpanTransient)
	sp.Count(obs.CtrNewtonIters, 936)
	sp.Count(obs.CtrLUFactor, 1)
	sp.Count(obs.CtrLURefactor, 935)
	sp.End()
	if err := balanced.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{path}); err != nil {
		t.Fatalf("rejected a trace whose LU work is accounted for: %v", err)
	}

	const fixture = "testdata/unaccounted_lu.jsonl"
	f, err := os.Open(fixture)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Validate(events); err != nil {
		t.Fatalf("fixture is not a well-formed trace: %v", err)
	}
	err = run([]string{fixture})
	if err == nil {
		t.Fatal("accepted a trace with more LU factorizations than Newton iterations")
	}
	if !strings.Contains(err.Error(), obs.CtrNewtonIters) {
		t.Errorf("error does not name the counters: %v", err)
	}
}

// TestPointAccountsChecked holds full traces to their contour-point
// accounting: a trace that counts each of its point events passes, and the
// fixture — a 6×6 surface run that counted its 36 grid samples as contour
// points while emitting no point event — fails, although its event stream
// is well-formed and its LU work is accounted for.
func TestPointAccountsChecked(t *testing.T) {
	balanced := obs.New()
	var buf bytes.Buffer
	balanced.AddSink(obs.NewJSONLSink(&buf))
	for i := 0; i < 2; i++ {
		sp := balanced.StartSpan(obs.SpanStep)
		sp.Point(float64(i)*1e-12, 1e-10, 2)
		sp.Count(obs.CtrPoints, 1)
		sp.End()
	}
	if err := balanced.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{path}); err != nil {
		t.Fatalf("rejected a trace whose contour points are accounted for: %v", err)
	}

	const fixture = "testdata/uncounted_points.jsonl"
	f, err := os.Open(fixture)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Validate(events); err != nil {
		t.Fatalf("fixture is not a well-formed trace: %v", err)
	}
	err = run([]string{fixture})
	if err == nil {
		t.Fatal("accepted a trace counting 36 contour points against 0 point events")
	}
	if !strings.Contains(err.Error(), obs.CtrPoints) {
		t.Errorf("error does not name the counter: %v", err)
	}
}
