package vet

import "fmt"

// analyzerChordConfig validates the chord/bypass fast-path setup (DESIGN
// §10). Chord iterations deliberately waste Newton iterations on stalls
// before falling back to a full factorization, so under Fast the Newton
// budget needs headroom. The fast path's gates are fixed constants, so the
// iteration bound is the only setting left to check.
var analyzerChordConfig = &Analyzer{
	Name:    "chord-config",
	Doc:     "chord fast-path config sane: Newton iteration headroom under Fast",
	HelpURI: "DESIGN.md#vet-chord-config",
	Run: func(t *Target) []Diagnostic {
		cfg := t.Spec.Eval
		if !cfg.Fast || cfg.MaxNewtonIter >= 8 {
			return nil
		}
		return []Diagnostic{{
			Severity: Warning,
			Param:    "maxnewtoniter",
			Message: fmt.Sprintf("chord mode with MaxNewtonIter = %d leaves no iteration headroom: stalled chord iterations spend budget before the full-Newton fallback converges (want ≥ 8)",
				cfg.MaxNewtonIter),
			Details: map[string]string{"max_newton_iter": fmt.Sprint(cfg.MaxNewtonIter)},
		}}
	},
}
