package vet

import (
	"fmt"
	"math"
)

// analyzerMPNRConfig validates the continuation setup: the Euler step α
// against the sweep box, the degradation fraction, and the crossing level r
// against the supply rails — the preconditions of the MPNR corrector and
// Euler-Newton tracer (paper Sections IIIC–IIIE).
var analyzerMPNRConfig = &Analyzer{
	Name:    "mpnr-config",
	Doc:     "continuation config sane: step α vs. sweep box, degradation in (0,1), crossing level r between rails",
	HelpURI: "DESIGN.md#vet-mpnr-config",
	Run: func(t *Target) []Diagnostic {
		var out []Diagnostic
		box := t.Spec.Bounds
		if box.MinS >= box.MaxS || box.MinH >= box.MaxH {
			out = append(out, Diagnostic{
				Severity: Error,
				Param:    "bounds",
				Message: fmt.Sprintf("sweep box is degenerate: τs ∈ [%s, %s], τh ∈ [%s, %s]",
					ps(box.MinS), ps(box.MaxS), ps(box.MinH), ps(box.MaxH)),
			})
		} else {
			minDim := math.Min(box.MaxS-box.MinS, box.MaxH-box.MinH)
			switch {
			case t.Spec.Step >= minDim:
				out = append(out, Diagnostic{
					Severity: Error,
					Param:    "step",
					Message: fmt.Sprintf("contour step α = %s is not smaller than the sweep box (min dimension %s); the first Euler step would leave the domain",
						ps(t.Spec.Step), ps(minDim)),
					Details: map[string]string{"alpha": ps(t.Spec.Step), "box_min_dim": ps(minDim)},
				})
			case t.Spec.Step > minDim/4:
				out = append(out, Diagnostic{
					Severity: Warning,
					Param:    "step",
					Message: fmt.Sprintf("contour step α = %s exceeds a quarter of the sweep box (min dimension %s); the trace will be very coarse",
						ps(t.Spec.Step), ps(minDim)),
				})
			}
		}
		if box.MinS < 0 || box.MinH < 0 {
			out = append(out, Diagnostic{
				Severity: Warning,
				Param:    "bounds",
				Message:  "sweep box extends to negative skews; the data pulse degenerates when τs + τh ≤ 0",
			})
		}
		if t.Spec.MaxPoints < 2 {
			out = append(out, Diagnostic{
				Severity: Error,
				Param:    "points",
				Message:  fmt.Sprintf("contour point budget %d is too small to trace a curve", t.Spec.MaxPoints),
			})
		}
		if deg := t.Spec.Eval.Degrade; deg >= 1 {
			out = append(out, Diagnostic{
				Severity: Error,
				Param:    "degrade",
				Message: fmt.Sprintf("clock-to-Q degradation fraction %.4g must lie in (0, 1); at 1 the measurement level never recovers",
					deg),
			})
		}
		if t.Inst != nil {
			cf := t.Inst.CrossFrac
			if cf <= 0 || cf >= 1 {
				out = append(out, Diagnostic{
					Severity: Error,
					Param:    "crossfrac",
					Message:  fmt.Sprintf("crossing fraction %.4g must lie strictly inside (0, 1)", cf),
				})
			} else if lo, hi, ok := supplyRails(t); ok && hi > lo {
				// r as the calibration computes it (stf.calibrate).
				r := cf * t.Inst.VDD
				if !t.Inst.OutputRising {
					r = (1 - cf) * t.Inst.VDD
				}
				if r >= hi-railTol || r <= lo+railTol {
					out = append(out, Diagnostic{
						Severity: Error,
						Param:    "crossfrac",
						Message: fmt.Sprintf("crossing level r = %s is unreachable: the output is bounded by the supply rails [%s, %s]",
							volts(r), volts(lo), volts(hi)),
						Details: map[string]string{"r": volts(r), "rail_lo": volts(lo), "rail_hi": volts(hi)},
					})
				}
			}
		}
		return out
	},
}

// analyzerSimWindow validates the two-phase integration windows: step
// ordering, clock resolvability, calibration skew coverage and the
// post-edge hunt window.
var analyzerSimWindow = &Analyzer{
	Name:    "sim-window",
	Doc:     "integration windows sane: step ordering, calibration skew, post-edge window",
	HelpURI: "DESIGN.md#vet-sim-window",
	Run: func(t *Target) []Diagnostic {
		cfg := t.Spec.Eval
		var out []Diagnostic
		if cfg.FineStep > cfg.CoarseStep {
			out = append(out, Diagnostic{
				Severity: Error,
				Param:    "finestep",
				Message: fmt.Sprintf("fine step %s exceeds the coarse step %s; the two-phase grid is inverted",
					ps(cfg.FineStep), ps(cfg.CoarseStep)),
			})
		}
		if cfg.CalSkew < t.Spec.Bounds.MaxS {
			out = append(out, Diagnostic{
				Severity: Warning,
				Param:    "calskew",
				Message: fmt.Sprintf("calibration skew %s is smaller than the max swept setup skew %s; the characteristic delay may not reflect ample-skew behavior",
					ps(cfg.CalSkew), ps(t.Spec.Bounds.MaxS)),
			})
		}
		if cfg.PostWindow < 10*cfg.FineStep {
			out = append(out, Diagnostic{
				Severity: Warning,
				Param:    "postwindow",
				Message: fmt.Sprintf("post-edge window %s is under 10 fine steps; the crossing hunt may run out of samples",
					ps(cfg.PostWindow)),
			})
		}
		if t.Inst != nil {
			ck := t.Inst.Clock
			if ck.Period > 0 && cfg.CoarseStep >= ck.Period/2 {
				out = append(out, Diagnostic{
					Severity: Warning,
					Param:    "coarsestep",
					Message: fmt.Sprintf("coarse step %s cannot resolve the clock period %s",
						ps(cfg.CoarseStep), ps(ck.Period)),
				})
			}
			// The calibration transient needs its fine window, which starts
			// FineMargin before the data ramp at CalSkew, to start after t = 0
			// (stf.calibrate errors out otherwise; catch it statically).
			if start := t.Inst.Data.SupportStart(cfg.CalSkew) - cfg.FineMargin; start <= 0 {
				out = append(out, Diagnostic{
					Severity: Error,
					Param:    "calskew",
					Message: fmt.Sprintf("calibration fine window starts at %s, before t = 0; reduce CalSkew or delay the active edge (at %s)",
						ps(start), ps(t.Inst.Edge50)),
					Details: map[string]string{"fine_start": ps(start), "edge50": ps(t.Inst.Edge50)},
				})
			}
		}
		return out
	},
}
