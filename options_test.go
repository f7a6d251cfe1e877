package latchchar

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// checkOptionError asserts the full validation taxonomy on one rejection:
// a typed *OptionError naming the expected field, wrapping ErrInvalidOptions.
func checkOptionError(t *testing.T, name string, err error, field string) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: accepted", name)
		return
	}
	if !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("%s: does not wrap ErrInvalidOptions: %v", name, err)
	}
	var oe *OptionError
	if !errors.As(err, &oe) {
		t.Errorf("%s: not a *OptionError: %v", name, err)
		return
	}
	if oe.Field != field {
		t.Errorf("%s: field %q, want %q", name, oe.Field, field)
	}
	if oe.Reason == "" {
		t.Errorf("%s: empty reason", name)
	}
}

func TestOptionErrorRendering(t *testing.T) {
	err := optErr("Eval.Degrade", 1.5, "must be a fraction below 1")
	msg := err.Error()
	for _, want := range []string{"Eval.Degrade", "1.5", "fraction below 1"} {
		if !strings.Contains(msg, want) {
			t.Errorf("rendered error misses %q: %s", want, msg)
		}
	}
	var oe *OptionError
	if !errors.As(err, &oe) || oe.Unwrap() != ErrInvalidOptions {
		t.Error("Unwrap does not expose the sentinel")
	}
}

func TestOptionsValidateTable(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name  string
		opts  Options
		field string // "" means valid
	}{
		{"zero defaults", Options{}, ""},
		{"negative points", Options{Points: -1}, "Points"},
		{"nan step", Options{Step: nan}, "Step"},
		{"negative step", Options{Step: -1e-12}, "Step"},
		{"resample of one", Options{Resample: 1}, "Resample"},
		{"negative resample", Options{Resample: -2}, "Resample"},
		{"resample of two ok", Options{Resample: 2}, ""},
		{"negative block", Options{Block: -1}, "Block"},
		{"block of four ok", Options{Block: 4}, ""},
		{"inverted bounds", Options{Bounds: Rect{MinS: 2, MaxS: 1, MinH: 0, MaxH: 1}}, "Bounds"},
		{"infinite bounds", Options{Bounds: Rect{MaxS: math.Inf(1), MaxH: 1}}, "Bounds"},
		{"negative coarse step", Options{Eval: EvalConfig{CoarseStep: -1}}, "Eval.CoarseStep"},
		{"degrade at one", Options{Eval: EvalConfig{Degrade: 1}}, "Eval.Degrade"},
		{"negative degrade", Options{Eval: EvalConfig{Degrade: -0.1}}, "Eval.Degrade"},
		{"fine above coarse", Options{Eval: EvalConfig{CoarseStep: 1e-12, FineStep: 2e-12}}, "Eval.FineStep"},
		{"negative seed window", Options{Seed: SeedOptions{TauHLarge: -1}}, "Seed.TauHLarge"},
		{"seed hi below lo", Options{Seed: SeedOptions{Lo: 2e-12, Hi: 1e-12}}, "Seed.Hi"},
		{"seed hi above lo ok", Options{Seed: SeedOptions{Lo: 1e-12, Hi: 2e-12}}, ""},
		{"negative seed expand", Options{Seed: SeedOptions{MaxExpand: -1}}, "Seed.MaxExpand"},
		{"negative mpnr iters", Options{MPNR: MPNROptions{MaxIter: -1}}, "MPNR.MaxIter"},
		{"nan mpnr htol", Options{MPNR: MPNROptions{HTol: nan}}, "MPNR.HTol"},
		{"negative mpnr tautol", Options{MPNR: MPNROptions{TauTol: -1}}, "MPNR.TauTol"},
		{"infinite mpnr maxstep", Options{MPNR: MPNROptions{MaxStep: math.Inf(1)}}, "MPNR.MaxStep"},
		{"negative mpnr maxstep ok", Options{MPNR: MPNROptions{MaxStep: -1}}, ""}, // disables clamping
		{"negative newton iters", Options{Eval: EvalConfig{MaxNewtonIter: -1}}, "Eval.MaxNewtonIter"},
	}
	for _, c := range cases {
		err := c.opts.Validate()
		if c.field == "" {
			if err != nil {
				t.Errorf("%s: rejected: %v", c.name, err)
			}
			continue
		}
		checkOptionError(t, c.name, err, c.field)
	}
}

func TestSurfaceOptionsValidateTable(t *testing.T) {
	cases := []struct {
		name  string
		opts  SurfaceOptions
		field string
	}{
		{"zero defaults", SurfaceOptions{}, ""},
		{"two-point grid ok", SurfaceOptions{N: 2}, ""},
		{"grid of one", SurfaceOptions{N: 1}, "N"},
		{"negative grid", SurfaceOptions{N: -3}, "N"},
		{"negative parallelism", SurfaceOptions{Parallelism: -1}, "Parallelism"},
		{"negative block", SurfaceOptions{Block: -1}, "Block"},
		{"block of one ok", SurfaceOptions{Block: 1}, ""},
		{"block of eight ok", SurfaceOptions{Block: 8}, ""},
		{"inverted domain", SurfaceOptions{Domain: Rect{MinS: 1, MaxS: 2, MinH: 2, MaxH: 1}}, "Domain"},
		{"bad nested eval", SurfaceOptions{Eval: EvalConfig{Degrade: 2}}, "Eval.Degrade"},
	}
	for _, c := range cases {
		err := c.opts.Validate()
		if c.field == "" {
			if err != nil {
				t.Errorf("%s: rejected: %v", c.name, err)
			}
			continue
		}
		checkOptionError(t, c.name, err, c.field)
	}
}

func TestMCOptionsValidateTable(t *testing.T) {
	cases := []struct {
		name  string
		opts  MCOptions
		field string
	}{
		{"zero defaults", MCOptions{}, ""},
		{"negative samples", MCOptions{Samples: -1}, "Samples"},
		{"nan sigma vt", MCOptions{SigmaVT: math.NaN()}, "SigmaVT"},
		{"negative sigma kp", MCOptions{SigmaKP: -0.01}, "SigmaKP"},
		{"negative parallelism", MCOptions{Parallelism: -1}, "Parallelism"},
		{"negative nested block", MCOptions{Characterize: Options{Block: -2}}, "Block"},
		// Validation recurses into the nested characterization options.
		{"bad nested characterize", MCOptions{Characterize: Options{Points: -1}}, "Points"},
	}
	for _, c := range cases {
		err := c.opts.Validate()
		if c.field == "" {
			if err != nil {
				t.Errorf("%s: rejected: %v", c.name, err)
			}
			continue
		}
		checkOptionError(t, c.name, err, c.field)
	}
}

func TestEngineOptionsValidateTable(t *testing.T) {
	cases := []struct {
		name  string
		opts  EngineOptions
		field string
	}{
		{"zero defaults", EngineOptions{}, ""},
		{"negative cache disables", EngineOptions{CacheSize: -1}, ""},
		{"negative parallelism", EngineOptions{Parallelism: -1}, "Parallelism"},
	}
	for _, c := range cases {
		err := c.opts.Validate()
		if c.field == "" {
			if err != nil {
				t.Errorf("%s: rejected: %v", c.name, err)
			}
			continue
		}
		checkOptionError(t, c.name, err, c.field)
	}
}

// CornerResults.Err must aggregate failures in sweep order, so a multi-line
// report reads in the same order the corners were requested.
func TestCornerResultsErrOrdering(t *testing.T) {
	if err := (CornerResults{}).Err(); err != nil {
		t.Errorf("empty sweep reports %v", err)
	}
	rs := CornerResults{
		{Corner: "ss", Err: errors.New("trace diverged")},
		{Corner: "tt"},
		{Corner: "ff", Err: errors.New("no seed bracket")},
		{Corner: "lv", Err: errors.New("calibration failed")},
	}
	err := rs.Err()
	if err == nil {
		t.Fatal("failed corners not aggregated")
	}
	msg := err.Error()
	prev := -1
	for _, corner := range []string{"corner ss", "corner ff", "corner lv"} {
		at := strings.Index(msg, corner)
		if at < 0 {
			t.Fatalf("aggregate misses %q: %s", corner, msg)
		}
		if at < prev {
			t.Errorf("%q out of sweep order in %q", corner, msg)
		}
		prev = at
	}
	if strings.Contains(msg, "corner tt") {
		t.Errorf("clean corner reported: %s", msg)
	}
	// The individual wrapped causes stay reachable through errors.Is.
	if !errors.Is(err, rs[0].Err) || !errors.Is(err, rs[3].Err) {
		t.Error("joined error hides the per-corner causes")
	}
}
