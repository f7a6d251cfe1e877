package cli

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"latchchar/internal/core"
	"latchchar/internal/obs"
	"latchchar/internal/transient"
)

func TestObsFlagsDisabledByDefault(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	var f ObsFlags
	f.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	run, closer, err := f.Build(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if run != nil {
		t.Fatal("no flags set, want nil run")
	}
	if err := closer(); err != nil {
		t.Fatalf("no-op closer: %v", err)
	}
}

func TestObsFlagsBuildSinks(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	var f ObsFlags
	f.Register(fs)
	jsonl := filepath.Join(dir, "t.jsonl")
	chrome := filepath.Join(dir, "t.json")
	if err := fs.Parse([]string{"-trace", jsonl, "-chrometrace", chrome, "-v"}); err != nil {
		t.Fatal(err)
	}
	var errw bytes.Buffer
	run, closer, err := f.Build(&errw)
	if err != nil {
		t.Fatal(err)
	}
	if run == nil {
		t.Fatal("flags set, want a live run")
	}
	sp := run.StartSpan(obs.SpanTrace)
	sp.Count(obs.CtrPoints, 1)
	sp.End()
	if err := closer(); err != nil {
		t.Fatalf("closer: %v", err)
	}
	events, err := obs.ReadJSONL(mustOpen(t, jsonl))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if err := obs.Validate(events); err != nil {
		t.Fatalf("trace file invalid: %v", err)
	}
	if !strings.Contains(errw.String(), "contour points: 1") {
		t.Fatalf("-v summary missing counters:\n%s", errw.String())
	}
	if b := mustRead(t, chrome); !bytes.Contains(b, []byte(`"ph": "X"`)) {
		t.Fatalf("chrome trace has no complete events:\n%s", b)
	}
}

func TestWriteProgress(t *testing.T) {
	var b bytes.Buffer
	writeProgress(&b, obs.Progress{
		Phase: obs.SpanTrace, Done: 3, Total: 40,
		TauS: 265.8e-12, TauH: 512.0e-12, CorrectorIters: 2,
		ETA: 1500 * time.Millisecond,
	})
	got := b.String()
	for _, want := range []string{"[trace] 3/40", "τs=265.80 ps", "τh=512.00 ps", "corrector=2 it", "eta=1.5s"} {
		if !strings.Contains(got, want) {
			t.Fatalf("progress line missing %q: %s", want, got)
		}
	}
}

// TestWriteLayerSplit renders a layer split as shares of the wall time,
// with the rest of the wall as "other" and the sampling stride stated, and
// prints nothing for a run with no layer time.
func TestWriteLayerSplit(t *testing.T) {
	var buf bytes.Buffer
	WriteLayerSplit(&buf, transient.Stats{
		Wall: 80 * time.Millisecond, DeviceEval: 24 * time.Millisecond,
		LU: 32 * time.Millisecond, Sens: 8 * time.Millisecond,
	})
	want := fmt.Sprintf("transient layers (80ms wall, split by timing 1 step in %d): assembly/device 30.0%%, LU 40.0%%, sensitivities 10.0%%, other 20.0%%\n",
		transient.LayerSampleStride)
	if got := buf.String(); got != want {
		t.Errorf("got  %q\nwant %q", got, want)
	}
	buf.Reset()
	WriteLayerSplit(&buf, transient.Stats{Wall: time.Second})
	if buf.Len() != 0 {
		t.Errorf("an untimed run printed %q", buf.String())
	}
}

func TestRenderErrorConvergence(t *testing.T) {
	inner := &core.ConvergenceError{
		Op: "mpnr",
		At: core.Point{TauS: 250e-12, TauH: 480e-12},
		Iterates: []core.Point{
			{TauS: 251e-12, TauH: 481e-12, H: 0.3},
			{TauS: 252e-12, TauH: 482e-12, H: -0.2},
		},
		Err: core.ErrNoConvergence,
	}
	outer := &core.ConvergenceError{
		Op:       "trace",
		At:       core.Point{TauS: 250e-12, TauH: 480e-12},
		StepLens: []float64{5e-12, 2.5e-12, 1.25e-12},
		Err:      inner,
	}
	var b bytes.Buffer
	RenderError(&b, fmt.Errorf("latchchar: %w", outer))
	got := b.String()
	for _, want := range []string{
		"predictor step lengths tried (ps): 5 2.5 1.25",
		"last corrector iterates",
		"251.0000", "3.000e-01", // iterate trail pulled from the nested error
		"2.000e-01",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("rendered error missing %q:\n%s", want, got)
		}
	}
}

func TestRenderErrorPlain(t *testing.T) {
	var b bytes.Buffer
	RenderError(&b, fmt.Errorf("boring failure"))
	if got := b.String(); got != "boring failure\n" {
		t.Fatalf("plain error rendered as %q", got)
	}
}

func mustOpen(t *testing.T, path string) io.Reader {
	t.Helper()
	return bytes.NewReader(mustRead(t, path))
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
