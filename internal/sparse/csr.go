// Package sparse implements the sparse linear algebra used by the circuit
// simulator: triplet assembly, compressed sparse row (CSR) storage, pattern
// union for forming C/Δt + G Jacobians, and an LU factorization with
// Markowitz ordering, threshold partial pivoting and fast numeric
// refactorization over the pivot sequence and L/U structure a one-time
// analysis records — the classic SPICE (sparse1.3) recipe.
package sparse

import (
	"fmt"
	"math"
	"sort"

	"latchchar/internal/linalg"
)

// Builder accumulates triplet (i, j, v) entries; duplicates are summed when
// the CSR matrix is built.
type Builder struct {
	n       int
	rows    []int
	cols    []int
	vals    []float64
	frozen  bool
	nnzHint int
}

// NewBuilder returns a Builder for an n×n matrix.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("sparse: negative dimension")
	}
	return &Builder{n: n}
}

// N returns the matrix dimension.
func (b *Builder) N() int { return b.n }

// Add records entry (i, j) += v.
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.n || j < 0 || j >= b.n {
		panic(fmt.Sprintf("sparse: entry (%d,%d) out of %dx%d", i, j, b.n, b.n))
	}
	b.rows = append(b.rows, i)
	b.cols = append(b.cols, j)
	b.vals = append(b.vals, v)
}

// Len returns the number of recorded triplets (before duplicate merging).
func (b *Builder) Len() int { return len(b.rows) }

// Build merges duplicates and returns the CSR matrix. The Builder may be
// reused afterwards by calling Reset.
func (b *Builder) Build() *CSR {
	type key struct{ i, j int }
	merged := make(map[key]float64, len(b.rows))
	for k := range b.rows {
		merged[key{b.rows[k], b.cols[k]}] += b.vals[k]
	}
	m := &CSR{N: b.n, RowPtr: make([]int, b.n+1)}
	keys := make([]key, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, c int) bool {
		if keys[a].i != keys[c].i {
			return keys[a].i < keys[c].i
		}
		return keys[a].j < keys[c].j
	})
	m.Col = make([]int, len(keys))
	m.Val = make([]float64, len(keys))
	for idx, k := range keys {
		m.RowPtr[k.i+1]++
		m.Col[idx] = k.j
		m.Val[idx] = merged[k]
	}
	for i := 0; i < b.n; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}

// Reset discards all recorded triplets so the Builder can be reused.
func (b *Builder) Reset() {
	b.rows = b.rows[:0]
	b.cols = b.cols[:0]
	b.vals = b.vals[:0]
}

// CSR is an n×n sparse matrix in compressed-sparse-row form with column
// indices sorted within each row.
type CSR struct {
	N      int
	RowPtr []int // len N+1
	Col    []int // len nnz
	Val    []float64
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Col) }

// At returns element (i, j), or 0 if it is not stored. O(log row nnz).
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.N || j < 0 || j >= m.N {
		panic(fmt.Sprintf("sparse: At(%d,%d) out of %dx%d", i, j, m.N, m.N))
	}
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	k := lo + sort.SearchInts(m.Col[lo:hi], j)
	if k < hi && m.Col[k] == j {
		return m.Val[k]
	}
	return 0
}

// Index returns the position in Val of stored entry (i, j) and whether the
// entry exists in the pattern.
func (m *CSR) Index(i, j int) (int, bool) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	k := lo + sort.SearchInts(m.Col[lo:hi], j)
	if k < hi && m.Col[k] == j {
		return k, true
	}
	return -1, false
}

// MulVec computes y = M·x. x and y must have length N and must not alias.
func (m *CSR) MulVec(x, y []float64) {
	if len(x) != m.N || len(y) != m.N {
		panic("sparse: MulVec dimension mismatch")
	}
	for i := 0; i < m.N; i++ {
		s := 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k] * x[m.Col[k]]
		}
		y[i] = s
	}
}

// MulVecAdd computes y += alpha · M·x.
func (m *CSR) MulVecAdd(alpha float64, x, y []float64) {
	if len(x) != m.N || len(y) != m.N {
		panic("sparse: MulVecAdd dimension mismatch")
	}
	for i := 0; i < m.N; i++ {
		s := 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k] * x[m.Col[k]]
		}
		y[i] += alpha * s
	}
}

// ZeroVals sets all stored values to 0, keeping the pattern.
func (m *CSR) ZeroVals() {
	for i := range m.Val {
		m.Val[i] = 0
	}
}

// Clone returns a deep copy of m.
func (m *CSR) Clone() *CSR {
	return &CSR{
		N:      m.N,
		RowPtr: append([]int(nil), m.RowPtr...),
		Col:    append([]int(nil), m.Col...),
		Val:    append([]float64(nil), m.Val...),
	}
}

// PatternClone returns a matrix sharing m's symbolic structure (RowPtr and
// Col alias m's slices, which callers must treat as read-only) with fresh
// zeroed values. The block-transient lanes use this so one symbolic analysis
// serves every lane of a block.
func (m *CSR) PatternClone() *CSR {
	return &CSR{
		N:      m.N,
		RowPtr: m.RowPtr,
		Col:    m.Col,
		Val:    make([]float64, len(m.Val)),
	}
}

// ToDense converts to a dense matrix; intended for tests and debugging.
func (m *CSR) ToDense() *linalg.Matrix {
	d := linalg.NewMatrix(m.N, m.N)
	for i := 0; i < m.N; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d.Add(i, m.Col[k], m.Val[k])
		}
	}
	return d
}

// MaxAbs returns the largest absolute stored value.
func (m *CSR) MaxAbs() float64 {
	best := 0.0
	for _, v := range m.Val {
		if a := math.Abs(v); a > best {
			best = a
		}
	}
	return best
}

// FromDense builds a CSR from a dense matrix, storing entries with
// |value| > 0. Intended for tests.
func FromDense(d *linalg.Matrix) *CSR {
	if d.Rows != d.Cols {
		panic("sparse: FromDense requires square matrix")
	}
	b := NewBuilder(d.Rows)
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			if v := d.At(i, j); v != 0 {
				b.Add(i, j, v)
			}
		}
	}
	return b.Build()
}
