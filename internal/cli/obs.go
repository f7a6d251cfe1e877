package cli

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"latchchar/internal/core"
	"latchchar/internal/obs"
	"latchchar/internal/transient"
)

// ObsFlags is the observability flag set shared by the command-line tools:
// -trace (JSONL event stream), -chrometrace (Perfetto/chrome://tracing),
// -progress (live stderr reporting), -v (run summary on exit), -log
// (structured text logging with a per-invocation correlation ID) and
// -flightdump (post-mortem event dump on failure).
type ObsFlags struct {
	TracePath  string
	ChromePath string
	Progress   bool
	Verbose    bool
	LogLevel   string
	DumpPath   string

	corr string
	rec  *obs.Recorder
}

// Register installs the flags on fs.
func (f *ObsFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.TracePath, "trace", "", "write a JSON-lines event trace to this path")
	fs.StringVar(&f.ChromePath, "chrometrace", "", "write a Chrome trace-event file (load in Perfetto) to this path")
	fs.BoolVar(&f.Progress, "progress", false, "report live progress on stderr")
	fs.BoolVar(&f.Verbose, "v", false, "print a run summary (phases, counters, histograms) on stderr")
	fs.StringVar(&f.LogLevel, "log", "", "structured logging on stderr at this level (debug, info, warn, error)")
	fs.StringVar(&f.DumpPath, "flightdump", "", "on failure, write a flight-recorder post-mortem dump (JSONL) to this path")
}

// NewCorrID returns a fresh correlation ID (a random W3C-style trace-id).
func NewCorrID() string {
	b := make([]byte, 16)
	if _, err := rand.Read(b); err != nil {
		return fmt.Sprintf("%032x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b)
}

// Corr returns the invocation's correlation ID; it is generated lazily, so
// every caller (run construction, loggers, dumps) sees the same ID.
func (f *ObsFlags) Corr() string {
	if f.corr == "" {
		f.corr = NewCorrID()
	}
	return f.corr
}

// Logger builds the structured text logger -log asks for, writing to errw;
// an unset -log yields a discard logger, so call sites log unconditionally.
// Callers attach the correlation ID themselves (logger.With("corr", ...)) or
// use LoggerWithCorr.
func (f *ObsFlags) Logger(errw io.Writer) (*slog.Logger, error) {
	if f.LogLevel == "" {
		return slog.New(slog.NewTextHandler(io.Discard, nil)), nil
	}
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(f.LogLevel)); err != nil {
		return nil, fmt.Errorf("-log: unknown level %q (have debug, info, warn, error)", f.LogLevel)
	}
	return slog.New(slog.NewTextHandler(errw, &slog.HandlerOptions{Level: lvl})), nil
}

// LoggerWithCorr is Logger with the invocation's correlation ID attached to
// every line.
func (f *ObsFlags) LoggerWithCorr(errw io.Writer) (*slog.Logger, error) {
	l, err := f.Logger(errw)
	if err != nil {
		return nil, err
	}
	return l.With("corr", f.Corr()), nil
}

// DumpOnError writes the flight-recorder post-mortem for err to the
// -flightdump path: the recorded event window plus a structured error event
// (for convergence failures, the corrector iterate ring and the step
// schedule). A no-op when the flag is unset, no run was built, or err is
// nil. Returns the path written ("" when skipped).
func (f *ObsFlags) DumpOnError(err error) (string, error) {
	if f.DumpPath == "" || f.rec == nil || err == nil {
		return "", nil
	}
	out, cerr := os.Create(f.DumpPath)
	if cerr != nil {
		return "", cerr
	}
	meta := obs.DumpMeta{Corr: f.Corr(), Reason: "failed", Err: err.Error()}
	if errors.Is(err, core.ErrCanceled) {
		meta.Reason = "canceled"
	}
	werr := f.rec.WriteDump(out, meta, errorEvent(err))
	if cerr := out.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return "", werr
	}
	return f.DumpPath, nil
}

// OnFailure is the shared CLI error path: it logs the failure with the
// correlation ID and writes the -flightdump post-mortem when one was asked
// for, reporting the written path on errw. A no-op for nil err.
func (f *ObsFlags) OnFailure(logger *slog.Logger, errw io.Writer, err error) {
	if err == nil {
		return
	}
	logger.Error("run failed", "error", err)
	path, derr := f.DumpOnError(err)
	switch {
	case derr != nil:
		fmt.Fprintf(errw, "flight dump failed: %v\n", derr)
	case path != "":
		fmt.Fprintf(errw, "flight dump written to %s\n", path)
		logger.Info("flight dump written", "path", path)
	}
}

// errorEvent converts a solver failure into the dump's structured error
// event, preserving the convergence iterate ring when present.
func errorEvent(err error) *obs.Event {
	if err == nil {
		return nil
	}
	ev := &obs.Event{Msg: err.Error()}
	var ce *core.ConvergenceError
	if errors.As(err, &ce) {
		ev.Op = ce.Op
		ev.Iterates = make([]obs.Iterate, len(ce.Iterates))
		for i, p := range ce.Iterates {
			ev.Iterates[i] = obs.Iterate{TauS: p.TauS, TauH: p.TauH, H: p.H}
		}
		ev.StepLens = append([]float64(nil), ce.StepLens...)
		return ev
	}
	var can *core.CanceledError
	if errors.As(err, &can) {
		ev.Op = can.Op
	}
	return ev
}

// Build constructs the observability run the flags describe and returns it
// with a closer that flushes sinks and output files. When no flag asks for
// observability the run is nil — collection fully disabled — and the closer
// is a no-op. (-log alone does not force a run: logging works without one.)
func (f *ObsFlags) Build(errw io.Writer) (*obs.Run, func() error, error) {
	if f.TracePath == "" && f.ChromePath == "" && !f.Progress && !f.Verbose && f.DumpPath == "" {
		return nil, func() error { return nil }, nil
	}
	ropts := []obs.Option{obs.WithCorr(f.Corr())}
	if f.Progress {
		ropts = append(ropts, obs.WithProgress(func(p obs.Progress) {
			writeProgress(errw, p)
		}, 500*time.Millisecond))
	}
	run := obs.New(ropts...)
	if f.DumpPath != "" {
		f.rec = obs.NewRecorder(0)
		run.AddSink(f.rec)
	}
	var files []*os.File
	closeAll := func() {
		for _, fl := range files {
			fl.Close()
		}
	}
	if f.TracePath != "" {
		fl, err := os.Create(f.TracePath)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		files = append(files, fl)
		run.AddSink(obs.NewJSONLSink(fl))
	}
	if f.ChromePath != "" {
		fl, err := os.Create(f.ChromePath)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		files = append(files, fl)
		run.AddSink(obs.NewChromeTraceSink(fl))
	}
	if f.Verbose {
		run.AddSink(obs.NewTextSummarySink(errw))
	}
	closer := func() error {
		err := run.Close()
		for _, fl := range files {
			if cerr := fl.Close(); err == nil {
				err = cerr
			}
		}
		return err
	}
	return run, closer, nil
}

// WriteLayerSplit renders a run's transient layer split (Result.Stats) as
// one line: the shares of the transients' wall time spent assembling the
// devices, in LU, in the sensitivity solves and in the rest of the
// integrator. The split is measured only under an obs run, on a sample of
// the steps (transient.LayerSampleStride); a split with no layer time
// prints nothing.
func WriteLayerSplit(w io.Writer, st transient.Stats) {
	layers := st.DeviceEval + st.LU + st.Sens
	if st.Wall <= 0 || layers == 0 {
		return
	}
	pct := func(d time.Duration) float64 { return 100 * float64(d) / float64(st.Wall) }
	fmt.Fprintf(w, "transient layers (%v wall, split by timing 1 step in %d): assembly/device %.1f%%, LU %.1f%%, sensitivities %.1f%%, other %.1f%%\n",
		st.Wall.Round(time.Microsecond), transient.LayerSampleStride,
		pct(st.DeviceEval), pct(st.LU), pct(st.Sens), pct(st.Wall-layers))
}

// writeProgress renders one live progress report as a single stderr line.
func writeProgress(w io.Writer, p obs.Progress) {
	fmt.Fprintf(w, "[%s] %d/%d", p.Phase, p.Done, p.Total)
	if p.TauS != 0 || p.TauH != 0 {
		fmt.Fprintf(w, "  τs=%s τh=%s", Ps(p.TauS), Ps(p.TauH))
	}
	if p.CorrectorIters > 0 {
		fmt.Fprintf(w, "  corrector=%d it", p.CorrectorIters)
	}
	if p.ETA > 0 && p.Done < p.Total {
		fmt.Fprintf(w, "  eta=%v", p.ETA.Round(100*time.Millisecond))
	}
	fmt.Fprintln(w)
}

// RenderError writes err to w; for solver convergence failures it expands
// the structured diagnostics — the last corrector iterates with their |h|
// residuals and the predictor step lengths tried — so the failure site is
// debuggable without rerunning under a tracer.
func RenderError(w io.Writer, err error) {
	var ce *core.ConvergenceError
	if !errors.As(err, &ce) {
		fmt.Fprintln(w, err)
		return
	}
	fmt.Fprintln(w, err)
	if len(ce.StepLens) > 0 {
		fmt.Fprintf(w, "  predictor step lengths tried (ps):")
		for _, a := range ce.StepLens {
			fmt.Fprintf(w, " %.3g", a*1e12)
		}
		fmt.Fprintln(w)
	}
	if len(ce.Iterates) == 0 {
		// A trace failure wraps the corrector failure that killed it; pull
		// the iterate trail from the nested error.
		var inner *core.ConvergenceError
		if errors.As(ce.Err, &inner) {
			ce = inner
		}
	}
	if len(ce.Iterates) > 0 {
		fmt.Fprintf(w, "  last corrector iterates:\n")
		fmt.Fprintf(w, "    %-4s %-12s %-12s %-12s\n", "it", "tau_s_ps", "tau_h_ps", "|h|")
		for i, p := range ce.Iterates {
			fmt.Fprintf(w, "    %-4d %-12.4f %-12.4f %-12.3e\n", i+1, p.TauS*1e12, p.TauH*1e12, absf(p.H))
		}
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
