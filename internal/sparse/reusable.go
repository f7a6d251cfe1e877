package sparse

// Reusable wraps LU with the factor-or-refactor policy used by the solvers:
// the first factorization runs the full Markowitz analysis, which is kept
// for the Reusable's whole life, and later ones refactorize over it. A
// refactorization that fails — a zero pivot, or a matrix with a different
// pattern — gets a fresh factorization for that one call only, so no
// factorization depends on the calls before it.
type Reusable struct {
	lu  *LU // the kept analysis
	cur *LU // the last call's factorization: lu, or a fresh one
	// Factorizations counts full analyses; Refactorizations counts fast
	// numeric refactorizations.
	Factorizations   int
	Refactorizations int
}

// Factorize prepares the factorization of a, reusing the kept pivot order
// when possible.
func (r *Reusable) Factorize(a *CSR) error {
	r.cur = nil
	if r.lu != nil {
		if err := r.lu.Refactor(a); err == nil {
			r.cur = r.lu
			r.Refactorizations++
			return nil
		}
		// Pivot order went stale or the pattern changed: factorize this
		// matrix fresh, keeping the analysis for the next call.
	}
	lu, err := Factor(a)
	if err != nil {
		return err
	}
	if r.lu == nil {
		r.lu = lu
	}
	r.cur = lu
	r.Factorizations++
	return nil
}

// Share makes r keep src's analysis, with value arrays of its own, unless r
// already keeps one.
func (r *Reusable) Share(src *Reusable) {
	if r.lu == nil && src.lu != nil {
		r.lu = src.lu.share()
	}
}

// Solve solves with the factorization of the last Factorize call. It panics
// unless that call succeeded.
func (r *Reusable) Solve(b, x []float64) {
	if r.cur == nil {
		panic("sparse: Reusable.Solve without a successful Factorize")
	}
	r.cur.Solve(b, x)
}
