package sparse

// Reusable wraps LU with the factor-or-refactor policy used by the solvers:
// the first factorization runs the full Markowitz analysis, subsequent ones
// reuse the recorded pivot sequence and structure, and a refactorization
// that fails — a zero pivot, or a matrix with a different pattern —
// transparently triggers a fresh analysis.
type Reusable struct {
	lu *LU
	// Factorizations counts full analyses; Refactorizations counts fast
	// numeric refactorizations.
	Factorizations   int
	Refactorizations int
}

// Factorize prepares the factorization of a, reusing the previous pivot
// order when possible.
func (r *Reusable) Factorize(a *CSR) error {
	if r.lu != nil {
		if err := r.lu.Refactor(a); err == nil {
			r.Refactorizations++
			return nil
		}
		// Pivot order went stale or the pattern changed; fall through to
		// a full analysis.
	}
	lu, err := Factor(a)
	if err != nil {
		return err
	}
	r.lu = lu
	r.Factorizations++
	return nil
}

// Solve solves with the last successful factorization. It panics if
// Factorize has never succeeded.
func (r *Reusable) Solve(b, x []float64) {
	if r.lu == nil {
		panic("sparse: Reusable.Solve before Factorize")
	}
	r.lu.Solve(b, x)
}
