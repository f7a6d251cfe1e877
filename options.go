package latchchar

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalidOptions is the sentinel every options-validation failure wraps;
// test with errors.Is. The structured *OptionError carries which field was
// rejected and why.
var ErrInvalidOptions = errors.New("latchchar: invalid options")

// OptionError reports one rejected configuration field. Zero values never
// trigger it — they keep their documented defaulting behavior — but
// negative counts, non-finite floats and contradictory ranges are rejected
// up front instead of silently snapping to defaults deep in a solver.
type OptionError struct {
	// Field names the rejected field, dotted for nested options
	// (e.g. "Eval.Degrade").
	Field string
	// Value is the rejected value.
	Value any
	// Reason says what a valid value looks like.
	Reason string
}

// Error renders a one-line report.
func (e *OptionError) Error() string {
	return fmt.Sprintf("latchchar: invalid option %s = %v: %s", e.Field, e.Value, e.Reason)
}

// Unwrap exposes the sentinel for errors.Is.
func (e *OptionError) Unwrap() error { return ErrInvalidOptions }

func optErr(field string, value any, reason string) error {
	return &OptionError{Field: field, Value: value, Reason: reason}
}

// checkFinite rejects NaN and ±Inf.
func checkFinite(field string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return optErr(field, v, "must be finite")
	}
	return nil
}

// checkNonNeg rejects negative and non-finite values; zero means "default".
func checkNonNeg(field string, v float64) error {
	if err := checkFinite(field, v); err != nil {
		return err
	}
	if v < 0 {
		return optErr(field, v, "must be ≥ 0 (0 selects the default)")
	}
	return nil
}

// validateEval checks an EvalConfig under the given field prefix.
func validateEval(prefix string, c EvalConfig) error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"CoarseStep", c.CoarseStep},
		{"FineStep", c.FineStep},
		{"MaxSetupSkew", c.MaxSetupSkew},
		{"FineMargin", c.FineMargin},
		{"CalSkew", c.CalSkew},
		{"PostWindow", c.PostWindow},
	} {
		if err := checkNonNeg(prefix+"."+f.name, f.v); err != nil {
			return err
		}
	}
	if err := checkNonNeg(prefix+".Degrade", c.Degrade); err != nil {
		return err
	}
	if c.Degrade >= 1 {
		return optErr(prefix+".Degrade", c.Degrade, "must be a fraction below 1 (e.g. 0.10)")
	}
	if c.CoarseStep > 0 && c.FineStep > 0 && c.FineStep > c.CoarseStep {
		return optErr(prefix+".FineStep", c.FineStep, "must not exceed CoarseStep")
	}
	if c.MaxNewtonIter < 0 {
		return optErr(prefix+".MaxNewtonIter", c.MaxNewtonIter, "must be ≥ 0 (0 selects the default)")
	}
	return nil
}

// validateRect checks a bounds rectangle; the zero Rect is the documented
// "use the default domain" request and always passes.
func validateRect(field string, r Rect) error {
	if (r == Rect{}) {
		return nil
	}
	for _, v := range []float64{r.MinS, r.MaxS, r.MinH, r.MaxH} {
		if err := checkFinite(field, v); err != nil {
			return err
		}
	}
	if r.MaxS <= r.MinS || r.MaxH <= r.MinH {
		return optErr(field, r, "needs MaxS > MinS and MaxH > MinH")
	}
	return nil
}

// Validate checks the characterization options, returning a typed
// *OptionError (wrapping ErrInvalidOptions) for the first rejected field.
// Zero values are always valid — they select the documented defaults.
func (o Options) Validate() error {
	if o.Points < 0 {
		return optErr("Points", o.Points, "must be ≥ 0 (0 selects the default)")
	}
	if err := checkNonNeg("Step", o.Step); err != nil {
		return err
	}
	if o.Resample < 0 || o.Resample == 1 {
		return optErr("Resample", o.Resample, "must be 0 (off) or ≥ 2 points")
	}
	if o.Block < 0 {
		return optErr("Block", o.Block, "must be ≥ 0 (0 or 1 keeps the scalar predictor)")
	}
	if err := validateRect("Bounds", o.Bounds); err != nil {
		return err
	}
	if err := validateEval("Eval", o.Eval); err != nil {
		return err
	}
	s := o.Seed
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Seed.TauHLarge", s.TauHLarge},
		{"Seed.Lo", s.Lo},
		{"Seed.Hi", s.Hi},
		{"Seed.NarrowTo", s.NarrowTo},
	} {
		if err := checkNonNeg(f.name, f.v); err != nil {
			return err
		}
	}
	if s.MaxExpand < 0 {
		return optErr("Seed.MaxExpand", s.MaxExpand, "must be ≥ 0 (0 selects the default)")
	}
	if s.Lo > 0 && s.Hi > 0 && s.Hi <= s.Lo {
		return optErr("Seed.Hi", s.Hi, "must exceed Seed.Lo")
	}
	m := o.MPNR
	if m.MaxIter < 0 {
		return optErr("MPNR.MaxIter", m.MaxIter, "must be ≥ 0 (0 selects the default)")
	}
	if err := checkNonNeg("MPNR.HTol", m.HTol); err != nil {
		return err
	}
	if err := checkNonNeg("MPNR.TauTol", m.TauTol); err != nil {
		return err
	}
	// MPNR.MaxStep < 0 is meaningful (disables step clamping); only reject
	// non-finite values.
	if err := checkFinite("MPNR.MaxStep", m.MaxStep); err != nil {
		return err
	}
	return nil
}

// Validate checks the surface-generation options; see Options.Validate.
func (o SurfaceOptions) Validate() error {
	if o.N < 0 || o.N == 1 {
		return optErr("N", o.N, "must be 0 (default) or ≥ 2 grid points per axis")
	}
	if o.Parallelism < 0 {
		return optErr("Parallelism", o.Parallelism, "must be ≥ 0 (0 selects the default)")
	}
	if o.Block < 0 {
		return optErr("Block", o.Block, "must be ≥ 0 (0 or 1 keeps scalar grid evaluation)")
	}
	if err := validateRect("Domain", o.Domain); err != nil {
		return err
	}
	return validateEval("Eval", o.Eval)
}

// Validate checks the Monte-Carlo options; see Options.Validate.
func (o MCOptions) Validate() error {
	if o.Samples < 0 {
		return optErr("Samples", o.Samples, "must be ≥ 0 (0 selects the default)")
	}
	switch o.Sampler {
	case "", SamplerIID, SamplerLHS, SamplerSobol:
	default:
		return optErr("Sampler", o.Sampler, `must be "iid", "lhs" or "sobol" ("" selects iid)`)
	}
	if err := checkNonNeg("SigmaVT", o.SigmaVT); err != nil {
		return err
	}
	if err := checkNonNeg("SigmaKP", o.SigmaKP); err != nil {
		return err
	}
	if err := checkNonNeg("SigmaLevel", o.SigmaLevel); err != nil {
		return err
	}
	if o.Probes < 0 || o.Probes == 1 {
		return optErr("Probes", o.Probes, "must be 0 (default) or ≥ 2 probe points")
	}
	if o.Parallelism < 0 {
		return optErr("Parallelism", o.Parallelism, "must be ≥ 0 (0 selects the default)")
	}
	return o.Characterize.Validate()
}

// Validate checks the engine options; see Options.Validate. A negative
// CacheSize is valid and disables the calibration cache.
func (o EngineOptions) Validate() error {
	if o.Parallelism < 0 {
		return optErr("Parallelism", o.Parallelism, "must be ≥ 0 (0 selects GOMAXPROCS)")
	}
	return nil
}
