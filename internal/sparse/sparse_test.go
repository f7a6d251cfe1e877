package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"latchchar/internal/linalg"
)

func TestBuilderMergesDuplicates(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 0, 1)
	b.Add(0, 0, 2)
	b.Add(2, 1, -1)
	m := b.Build()
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", m.NNZ())
	}
	if m.At(0, 0) != 3 {
		t.Errorf("At(0,0) = %v, want 3", m.At(0, 0))
	}
	if m.At(2, 1) != -1 {
		t.Errorf("At(2,1) = %v", m.At(2, 1))
	}
	if m.At(1, 1) != 0 {
		t.Errorf("missing entry should read 0")
	}
}

func TestBuilderReset(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 0, 1)
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
	b.Add(1, 1, 5)
	m := b.Build()
	if m.NNZ() != 1 || m.At(1, 1) != 5 {
		t.Errorf("rebuild after reset wrong: %v", m)
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	b := NewBuilder(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.Add(2, 0, 1)
}

func TestCSRSortedColumnsAndIndex(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 1, 2)
	b.Add(0, 0, 1)
	m := b.Build()
	if m.Col[0] != 0 || m.Col[1] != 1 {
		t.Errorf("columns not sorted: %v", m.Col)
	}
	if k, ok := m.Index(0, 1); !ok || m.Val[k] != 2 {
		t.Errorf("Index(0,1) = %d,%v", k, ok)
	}
	if _, ok := m.Index(1, 0); ok {
		t.Error("Index of absent entry should be !ok")
	}
}

func TestMulVec(t *testing.T) {
	// [2 0 1; 0 3 0; 0 0 4]
	b := NewBuilder(3)
	b.Add(0, 0, 2)
	b.Add(0, 2, 1)
	b.Add(1, 1, 3)
	b.Add(2, 2, 4)
	m := b.Build()
	x := []float64{1, 2, 3}
	y := make([]float64, 3)
	m.MulVec(x, y)
	want := []float64{5, 6, 12}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("MulVec: %v want %v", y, want)
		}
	}
	// MulVecAdd accumulates.
	m.MulVecAdd(2, x, y)
	if y[0] != 15 || y[1] != 18 || y[2] != 36 {
		t.Fatalf("MulVecAdd: %v", y)
	}
}

func TestToDenseFromDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := linalg.NewMatrix(5, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if rng.Float64() < 0.4 {
				d.Set(i, j, rng.NormFloat64())
			}
		}
	}
	m := FromDense(d)
	back := m.ToDense()
	for i := range d.Data {
		if d.Data[i] != back.Data[i] {
			t.Fatal("round trip mismatch")
		}
	}
}

func TestUnionPattern(t *testing.T) {
	a := FromDense(denseOf(3, map[[2]int]float64{{0, 0}: 1, {1, 2}: 2}))
	b := FromDense(denseOf(3, map[[2]int]float64{{0, 0}: 5, {2, 1}: 3}))
	u, mapA, mapB := UnionPattern(a, b)
	if u.NNZ() != 3 {
		t.Fatalf("union NNZ = %d, want 3", u.NNZ())
	}
	Combine(u, 2, a, mapA, 10, b, mapB)
	if u.At(0, 0) != 2*1+10*5 {
		t.Errorf("At(0,0) = %v", u.At(0, 0))
	}
	if u.At(1, 2) != 4 {
		t.Errorf("At(1,2) = %v", u.At(1, 2))
	}
	if u.At(2, 1) != 30 {
		t.Errorf("At(2,1) = %v", u.At(2, 1))
	}
}

func TestUnionPatternRandomAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(10)
		da, db := randomDense(rng, n, 0.3, 0), randomDense(rng, n, 0.3, 0)
		a, b := FromDense(da), FromDense(db)
		u, mapA, mapB := UnionPattern(a, b)
		alpha, beta := rng.NormFloat64(), rng.NormFloat64()
		Combine(u, alpha, a, mapA, beta, b, mapB)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := alpha*da.At(i, j) + beta*db.At(i, j)
				if math.Abs(u.At(i, j)-want) > 1e-12 {
					t.Fatalf("trial %d (%d,%d): got %v want %v", trial, i, j, u.At(i, j), want)
				}
			}
		}
	}
}

func denseOf(n int, entries map[[2]int]float64) *linalg.Matrix {
	d := linalg.NewMatrix(n, n)
	for k, v := range entries {
		d.Set(k[0], k[1], v)
	}
	return d
}

func randomDense(rng *rand.Rand, n int, density, diagBoost float64) *linalg.Matrix {
	d := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < density {
				d.Set(i, j, rng.NormFloat64())
			}
		}
		d.Add(i, i, diagBoost)
	}
	return d
}

func TestLUSolveDiagonal(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 0, 2)
	b.Add(1, 1, 4)
	b.Add(2, 2, 8)
	m := b.Build()
	f, err := Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 3)
	f.Solve([]float64{2, 4, 8}, x)
	for i, v := range x {
		if math.Abs(v-1) > 1e-14 {
			t.Fatalf("x[%d] = %v", i, v)
		}
	}
}

func TestLUSolveNeedsColumnPermutation(t *testing.T) {
	// Anti-diagonal matrix: [0 1; 2 0].
	b := NewBuilder(2)
	b.Add(0, 1, 1)
	b.Add(1, 0, 2)
	m := b.Build()
	f, err := Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2)
	f.Solve([]float64{3, 4}, x)
	// x1 = 3, 2·x0 = 4.
	if math.Abs(x[0]-2) > 1e-14 || math.Abs(x[1]-3) > 1e-14 {
		t.Fatalf("x = %v", x)
	}
}

func TestLUSingularDetected(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 0, 1)
	b.Add(0, 1, 2)
	b.Add(1, 0, 2)
	b.Add(1, 1, 4)
	if _, err := Factor(b.Build()); err == nil {
		t.Error("expected ErrZeroPivot for singular matrix")
	}
	z := NewBuilder(2).Build()
	if _, err := Factor(z); err == nil {
		t.Error("expected error for empty pattern")
	}
}

func TestLUEmptyMatrix(t *testing.T) {
	f, err := Factor(NewBuilder(0).Build())
	if err != nil {
		t.Fatal(err)
	}
	f.Solve(nil, nil)
}

func TestLURandomAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(15)
		d := randomDense(rng, n, 0.35, float64(n))
		m := FromDense(d)
		bvec := make(linalg.Vector, n)
		for i := range bvec {
			bvec[i] = rng.NormFloat64()
		}
		want, err := linalg.SolveLinear(d, bvec)
		if err != nil {
			continue // skip the rare singular draw
		}
		f, err := Factor(m)
		if err != nil {
			t.Fatalf("trial %d: sparse Factor failed: %v", trial, err)
		}
		got := make([]float64, n)
		f.Solve(bvec, got)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d x[%d]: sparse %v dense %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestLUResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(30)
		d := randomDense(rng, n, 0.2, float64(n))
		m := FromDense(d)
		f, err := Factor(m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		f.Solve(b, x)
		r := make([]float64, n)
		m.MulVec(x, r)
		for i := range r {
			if math.Abs(r[i]-b[i]) > 1e-9*(1+math.Abs(b[i])) {
				t.Fatalf("trial %d: residual[%d] = %v", trial, i, r[i]-b[i])
			}
		}
	}
}

func TestLURefactorSamePattern(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 12
	d := randomDense(rng, n, 0.3, float64(n))
	m := FromDense(d)
	f, err := Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	// Change the values (same pattern) several times and refactor.
	for round := 0; round < 5; round++ {
		m2 := m.Clone()
		for k := range m2.Val {
			m2.Val[k] *= 1 + 0.3*rng.NormFloat64()
		}
		// Keep diagonal dominant so the old pivot order stays valid.
		for i := 0; i < n; i++ {
			if k, ok := m2.Index(i, i); ok {
				m2.Val[k] += float64(n)
			}
		}
		if err := f.Refactor(m2); err != nil {
			t.Fatalf("round %d: Refactor: %v", round, err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		f.Solve(b, x)
		r := make([]float64, n)
		m2.MulVec(x, r)
		for i := range r {
			if math.Abs(r[i]-b[i]) > 1e-8*(1+math.Abs(b[i])) {
				t.Fatalf("round %d: residual[%d] = %v", round, i, r[i]-b[i])
			}
		}
	}
}

func TestLURefactorZeroPivotReported(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 0, 1)
	b.Add(1, 1, 1)
	m := b.Build()
	f, err := Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	m2 := m.Clone()
	// Zero out whichever diagonal was pivoted first; both are pivots here.
	m2.Val[0] = 0
	if err := f.Refactor(m2); err == nil {
		t.Error("expected ErrZeroPivot after zeroing a pivot")
	}
}

// A refactorization that stops at a zero pivot must leave the LU usable:
// here step 1's pivot cancels to exactly 0 while its U row still holds a
// nonzero entry, which must not leak into the next Refactor.
func TestLURefactorUsableAfterZeroPivot(t *testing.T) {
	b := NewBuilder(3)
	for _, e := range [][3]float64{{0, 0, 2}, {0, 1, 1}, {1, 0, 1}, {1, 1, 2}, {1, 2, 1}, {2, 1, 1}, {2, 2, 1}} {
		b.Add(int(e[0]), int(e[1]), e[2])
	}
	m := b.Build()
	f, err := Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	if f.rowOf[1] != 1 || f.colOf[1] != 1 {
		t.Fatalf("step 1 pivot (%d,%d), want (1,1)", f.rowOf[1], f.colOf[1])
	}
	bad := m.Clone()
	k, _ := bad.Index(1, 1)
	bad.Val[k] = 0.5 // a11 − a10·a01/a00 = 0
	if err := f.Refactor(bad); !errors.Is(err, ErrZeroPivot) {
		t.Fatalf("err = %v, want ErrZeroPivot", err)
	}
	if err := f.Refactor(m); err != nil {
		t.Fatal(err)
	}
	rhs := []float64{3, 4, 2}
	x := make([]float64, 3)
	f.Solve(rhs, x)
	for i, v := range x {
		if math.Abs(v-1) > 1e-14 {
			t.Fatalf("x[%d] = %v, want 1", i, v)
		}
	}
}

func TestLUSolveAliasedInPlace(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 0, 2)
	b.Add(1, 1, 5)
	f, err := Factor(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{4, 10}
	f.Solve(v, v)
	if v[0] != 2 || v[1] != 2 {
		t.Fatalf("in-place solve: %v", v)
	}
}

func TestLUHighFillMatrix(t *testing.T) {
	// Arrow matrix: dense last row/col + diagonal. Classic fill-in stress:
	// a bad pivot order fills completely; Markowitz should keep it sparse,
	// and regardless the numerics must stay correct.
	n := 25
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 4)
		if i < n-1 {
			b.Add(i, n-1, 1)
			b.Add(n-1, i, 1)
		}
	}
	m := b.Build()
	f, err := Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i + 1)
	}
	x := make([]float64, n)
	f.Solve(rhs, x)
	r := make([]float64, n)
	m.MulVec(x, r)
	for i := range r {
		if math.Abs(r[i]-rhs[i]) > 1e-10 {
			t.Fatalf("residual[%d] = %v", i, r[i]-rhs[i])
		}
	}
	// Sparsity check: with Markowitz ordering, the arrow matrix should
	// factor with O(n) fill, far below the dense n(n-1)/2.
	fill := len(f.lStep) + len(f.uCol) - n
	if fill > 6*n {
		t.Errorf("fill %d too high for arrow matrix (n=%d); ordering broken?", fill, n)
	}
}

// Property: Refactor along the recorded pivot order produces the same
// solutions as a fresh full analysis, for random same-pattern value sets.
func TestLURefactorEquivalentToFreshFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(15)
		d := randomDense(rng, n, 0.3, float64(n))
		m := FromDense(d)
		reused, err := Factor(m)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			m2 := m.Clone()
			for k := range m2.Val {
				m2.Val[k] *= 1 + 0.2*rng.NormFloat64()
			}
			for i := 0; i < n; i++ {
				if k, ok := m2.Index(i, i); ok {
					m2.Val[k] += float64(n)
				}
			}
			if err := reused.Refactor(m2); err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			fresh, err := Factor(m2)
			if err != nil {
				t.Fatal(err)
			}
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			x1 := make([]float64, n)
			x2 := make([]float64, n)
			reused.Solve(b, x1)
			fresh.Solve(b, x2)
			for i := range x1 {
				if math.Abs(x1[i]-x2[i]) > 1e-8*(1+math.Abs(x2[i])) {
					t.Fatalf("trial %d: refactor solve differs at %d: %v vs %v", trial, i, x1[i], x2[i])
				}
			}
		}
	}
}

// The structure must come from the pattern, not from the values Factor
// sees: the multiplier that eliminates entry (1,0) is exactly 0 at Factor
// time, so value-driven fill would leave (1,2) out of the structure and a
// refactorization with a nonzero (1,0) would lose that entry's update.
func TestLURefactorFillFromPattern(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 0, 4)
	b.Add(0, 2, 1)
	b.Add(1, 0, 0)
	b.Add(1, 1, 4)
	b.Add(2, 1, 1)
	b.Add(2, 2, 4)
	m := b.Build()
	f, err := Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	if f.rowOf[0] != 0 || f.colOf[0] != 0 {
		t.Fatalf("first pivot (%d,%d), want (0,0)", f.rowOf[0], f.colOf[0])
	}
	m2 := m.Clone()
	k, _ := m2.Index(1, 0)
	m2.Val[k] = 2
	if err := f.Refactor(m2); err != nil {
		t.Fatal(err)
	}
	rhs := []float64{1, 2, 3}
	want, err := linalg.SolveLinear(m2.ToDense(), rhs)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 3)
	f.Solve(rhs, got)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-14 {
			t.Fatalf("x = %v, want %v", got, want)
		}
	}
}

func TestLURefactorRejectsOtherPattern(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 0, 2)
	b.Add(1, 1, 2)
	f, err := Factor(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	b.Add(0, 1, 1)
	if err := f.Refactor(b.Build()); !errors.Is(err, ErrPattern) {
		t.Errorf("other pattern: err = %v, want ErrPattern", err)
	}
	if err := f.Refactor(NewBuilder(3).Build()); !errors.Is(err, ErrPattern) {
		t.Errorf("other dimension: err = %v, want ErrPattern", err)
	}
	// Reusable answers a pattern change with a fresh analysis.
	var r Reusable
	b.Reset()
	b.Add(0, 0, 2)
	b.Add(1, 1, 2)
	if err := r.Factorize(b.Build()); err != nil {
		t.Fatal(err)
	}
	b.Add(0, 1, 1)
	if err := r.Factorize(b.Build()); err != nil {
		t.Fatal(err)
	}
	if r.Factorizations != 2 || r.Refactorizations != 0 {
		t.Errorf("counters after a pattern change: %+v", r)
	}
	x := make([]float64, 2)
	r.Solve([]float64{3, 2}, x)
	if x[0] != 1 || x[1] != 1 {
		t.Errorf("x = %v, want [1 1]", x)
	}
}

// Refactor and Solve run once per Newton iteration of every transient step,
// so they must not allocate.
func TestLURefactorSolveAllocFree(t *testing.T) {
	m := mnaLike(rand.New(rand.NewSource(2)), 9, 3, 55)
	f, err := Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, m.N)
	for i := range rhs {
		rhs[i] = float64(i + 1)
	}
	x := make([]float64, m.N)
	allocs := testing.AllocsPerRun(100, func() {
		if err := f.Refactor(m); err != nil {
			t.Fatal(err)
		}
		f.Solve(rhs, x)
	})
	if allocs != 0 {
		t.Errorf("Refactor+Solve allocate %v objects per call, want 0", allocs)
	}
}

func TestReusableFallsBackToFreshAnalysis(t *testing.T) {
	// First matrix is diagonal; the recorded pivots are the diagonal
	// entries. The second matrix (same pattern) zeroes the diagonal but is
	// nonsingular through its off-diagonal entries, so Refactor's pivot
	// order goes stale and Reusable must transparently redo the analysis.
	b := NewBuilder(2)
	b.Add(0, 0, 2)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	b.Add(1, 1, 2)
	m1 := b.Build()
	var r Reusable
	if err := r.Factorize(m1); err != nil {
		t.Fatal(err)
	}
	if r.Factorizations != 1 || r.Refactorizations != 0 {
		t.Fatalf("counters after first: %+v", r)
	}
	m2 := m1.Clone()
	// Zero the diagonal, strengthen the anti-diagonal.
	for i := 0; i < 2; i++ {
		if k, ok := m2.Index(i, i); ok {
			m2.Val[k] = 0
		}
		if k, ok := m2.Index(i, 1-i); ok {
			m2.Val[k] = 3
		}
	}
	if err := r.Factorize(m2); err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if r.Factorizations != 2 {
		t.Errorf("expected a fresh analysis, counters: %+v", r)
	}
	x := make([]float64, 2)
	r.Solve([]float64{3, 6}, x)
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Errorf("x = %v, want [2 1]", x)
	}
	// Same-pattern benign change now refactors fast.
	m3 := m2.Clone()
	for k := range m3.Val {
		m3.Val[k] *= 1.1
	}
	if err := r.Factorize(m3); err != nil {
		t.Fatal(err)
	}
	if r.Refactorizations != 1 {
		t.Errorf("expected a refactorization, counters: %+v", r)
	}
}

func TestReusableSolveBeforeFactorizePanics(t *testing.T) {
	var r Reusable
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Solve([]float64{1}, []float64{0})
}

// FuzzLU builds a matrix from the fuzz input — each 4-byte record is one
// entry (row, column, value, perturbation) — and drives a Reusable through
// its factorization, then through the refactorization of the perturbed
// same-pattern matrix, checking each solve against the dense reference. It
// must never panic, and any failure must be ErrZeroPivot. Run with
// `go test -fuzz=FuzzLU ./internal/sparse`; the seeds execute as regular
// tests.
func FuzzLU(f *testing.F) {
	f.Add([]byte{2, 0, 0, 64, 0, 1, 1, 64, 0, 2, 2, 64, 0, 1, 0, 0, 32, 0, 2, 16, 0, 2, 1, 16, 0})
	f.Add([]byte{1, 0, 1, 16, 0, 1, 0, 32, 0})
	f.Add([]byte{3, 0, 0, 32, 192, 1, 1, 32, 3, 2, 2, 32, 7, 3, 3, 32, 9, 0, 3, 8, 5, 3, 0, 8, 0, 1, 2, 200, 40})
	f.Add([]byte{7, 0, 0, 16, 1, 1, 1, 16, 2, 2, 2, 16, 3, 3, 3, 16, 4, 4, 4, 16, 5, 5, 5, 16, 6, 6, 6, 16, 7,
		7, 7, 16, 8, 7, 0, 100, 9, 0, 7, 100, 10, 3, 5, 240, 11})
	f.Add([]byte{1, 0, 0, 16, 192, 1, 1, 16, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 || len(data) > 4*64+1 {
			return
		}
		n := 1 + int(data[0])%8
		b := NewBuilder(n)
		var deltas []float64
		for rec := data[1:]; len(rec) >= 4; rec = rec[4:] {
			b.Add(int(rec[0])%n, int(rec[1])%n, float64(int8(rec[2]))/16)
			deltas = append(deltas, float64(int8(rec[3]))/64)
		}
		m := b.Build()
		var r Reusable
		if !factorizeAndCheck(t, &r, m) {
			return
		}
		// Perturb every stored entry; the merged entry k takes the k-th
		// record's perturbation, which may zero it or fill a stored zero.
		m2 := m.Clone()
		for k := range m2.Val {
			m2.Val[k] += deltas[k]
		}
		factorizeAndCheck(t, &r, m2)
	})
}

// factorizeAndCheck factorizes m with r and compares r's solve with the
// dense reference. The bound scales with the condition number and the
// factorization's growth, so an ill-conditioned draw is skipped rather than
// failed; a structural error is off by O(1) and still caught. It reports
// whether m factorized.
func factorizeAndCheck(t *testing.T, r *Reusable, m *CSR) bool {
	t.Helper()
	if err := r.Factorize(m); err != nil {
		if !errors.Is(err, ErrZeroPivot) {
			t.Fatalf("Factorize: %v, want ErrZeroPivot", err)
		}
		return false
	}
	n := m.N
	d := m.ToDense()
	ref, err := linalg.Factor(d)
	if err != nil {
		return true // singular to the dense reference: nothing to compare
	}
	invNorm := 0.0 // ‖A⁻¹‖∞ from the dense inverse's row sums
	rowSums := make([]float64, n)
	for j := 0; j < n; j++ {
		e := make(linalg.Vector, n)
		e[j] = 1
		for i, v := range ref.Solve(e) {
			rowSums[i] += math.Abs(v)
		}
	}
	for _, s := range rowSums {
		invNorm = math.Max(invNorm, s)
	}
	growth, amax := 1.0, m.MaxAbs()
	for _, v := range r.lu.uVal {
		growth = math.Max(growth, math.Abs(v)/amax)
	}
	amp := d.NormInf() * invNorm * growth
	if amp > 1e8 {
		return true
	}
	rhs := make(linalg.Vector, n)
	for i := range rhs {
		rhs[i] = float64(i + 1)
	}
	want := ref.Solve(rhs)
	got := make([]float64, n)
	r.Solve(rhs, got)
	scale := linalg.Vector(want).NormInf()
	for i := range got {
		if !(math.Abs(got[i]-want[i]) <= 1e-12*amp*scale) {
			t.Fatalf("x[%d] = %v, dense reference %v (condition × growth %.3g)", i, got[i], want[i], amp)
		}
	}
	return true
}
