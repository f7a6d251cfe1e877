package latchchar

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
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

// fuzzFill sets struct fields from a fuzzer's bytes, in declaration order,
// nested structs included: a number takes 8 bytes as its bit pattern (a
// float's IEEE bits, so NaN, ±Inf, negatives and denormals all occur), a
// bool one bit of them, and a string one of fuzzStrings. Bytes past the end
// read as zero, the value every field defaults from.
type fuzzFill struct{ b []byte }

var fuzzStrings = []string{"", string(SamplerIID), string(SamplerLHS), string(SamplerSobol), "x"}

func (f *fuzzFill) next() uint64 {
	var w [8]byte
	f.b = f.b[copy(w[:], f.b):]
	return binary.LittleEndian.Uint64(w[:])
}

func (f *fuzzFill) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				f.fill(v.Field(i))
			}
		}
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(f.next()))
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(f.next()))
	case reflect.Uint64:
		v.SetUint(f.next())
	case reflect.Bool:
		v.SetBool(f.next()&1 == 1)
	case reflect.String:
		v.SetString(fuzzStrings[f.next()%uint64(len(fuzzStrings))])
	}
}

// FuzzOptionsValidate fills an Options, a SurfaceOptions and an MCOptions
// from the fuzzer's bytes (fuzzFill) and validates each. Validate must never
// panic, and every rejection must be an *OptionError, naming its field and
// wrapping ErrInvalidOptions.
func FuzzOptionsValidate(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 512))
	num := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(num(math.NaN(), math.Inf(1), -1, 5e-12, 1e-9, 0.1, 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzFill{data}
		var o Options
		var s SurfaceOptions
		var m MCOptions
		for _, p := range []any{&o, &s, &m} {
			in.fill(reflect.ValueOf(p).Elem())
		}
		for name, err := range map[string]error{"Options": o.Validate(), "SurfaceOptions": s.Validate(), "MCOptions": m.Validate()} {
			if err == nil {
				continue
			}
			var oe *OptionError
			if !errors.As(err, &oe) || !errors.Is(err, ErrInvalidOptions) || oe.Field == "" {
				t.Errorf("%s.Validate: %T %v, want an *OptionError naming its field, wrapping ErrInvalidOptions", name, err, err)
			}
		}
	})
}
