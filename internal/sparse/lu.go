package sparse

import (
	"errors"
	"math"
	"slices"
)

// ErrZeroPivot is returned when elimination hits a pivot that is zero or
// negligible relative to the matrix scale. During Refactor it signals the
// caller to factorize that matrix fresh, with a full Markowitz analysis.
var ErrZeroPivot = errors.New("sparse: zero pivot encountered")

// ErrPattern is returned by Refactor for a matrix whose dimension or
// sparsity pattern differs from the one Factor analysed.
var ErrPattern = errors.New("sparse: matrix pattern differs from the analysed one")

const (
	// pivThreshold is the Markowitz partial-pivoting threshold τ: a
	// candidate pivot must satisfy |a| ≥ τ·(column max of the active
	// submatrix). Smaller values favor sparsity over stability.
	pivThreshold = 0.1
	// pivRelFloor rejects pivots at or below this fraction of the largest
	// matrix entry.
	pivRelFloor = 1e-13
)

// LU is a sparse LU factorization P_r·A·P_c = L·U. Factor chooses the pivot
// sequence by Markowitz ordering with threshold partial pivoting and derives
// the static structure of L and U along it from A's pattern alone; Refactor
// then recomputes the values for any matrix with that pattern over the fixed
// structure, without repeating the analysis.
//
// Row k of both factors belongs to pivot step k. L row k holds the
// multipliers with which steps s < k (increasing) eliminate original row
// rowOf[k]; U row k is what remains of that row, pivot (original column
// colOf[k]) first, then the other columns in increasing order. The rows are
// stored flat, CSR-style, and every loop walks them in that fixed order, so
// factorizations and solves are bit-reproducible.
type LU struct {
	n     int
	rowOf []int // rowOf[k]: original row pivoted at step k
	colOf []int // colOf[k]: original column pivoted at step k

	// The analysed pattern of A, which Refactor requires.
	rowPtr, col []int

	lPtr  []int     // L row k is lStep/lVal[lPtr[k]:lPtr[k+1]]
	lStep []int     // eliminating step s < k
	lVal  []float64 // multiplier
	uPtr  []int     // U row k is uCol/uVal[uPtr[k]:uPtr[k+1]]
	uCol  []int     // original column
	uVal  []float64

	w []float64 // elimination row indexed by original column; zero between rows
	y []float64 // forward-substitution result indexed by step
}

// Factor performs the full analysis of a — pivot order and static fill —
// followed by its numeric factorization.
func Factor(a *CSR) (*LU, error) {
	f, err := analyse(a)
	if err != nil {
		return nil, err
	}
	if err := f.Refactor(a); err != nil {
		return nil, err
	}
	return f, nil
}

// analyse chooses the pivot sequence by Markowitz search with threshold
// partial pivoting on a's values, scanning rows and then columns in
// increasing order (ties go to the larger magnitude, then to the first
// candidate found), and records the L and U structure that elimination
// along it produces. Fill is structural: an entry created by the elimination
// stays in the pattern even when its multiplier is zero for a's values, so
// the structure holds for every matrix with a's pattern.
func analyse(a *CSR) (*LU, error) {
	n, nnz := a.N, a.NNZ()
	scale := a.MaxAbs()
	if n > 0 && scale == 0 {
		return nil, ErrZeroPivot
	}
	floor := scale * pivRelFloor

	// The active submatrix lives in an append-only arena: row r is
	// cols/vals[lo[r]:hi[r]] with its columns sorted, and eliminating a row
	// appends the row's new version. colCount[j] counts the active rows
	// holding column j; stepOf[r] is the step that pivots row r.
	cols := append(make([]int, 0, 4*nnz), a.Col...)
	vals := append(make([]float64, 0, 4*nnz), a.Val...)
	lo, hi := make([]int, n), make([]int, n)
	colCount, stepOf := make([]int, n), make([]int, n)
	for i := 0; i < n; i++ {
		lo[i], hi[i] = a.RowPtr[i], a.RowPtr[i+1]
	}
	for _, j := range a.Col {
		colCount[j]++
	}
	colMax := make([]float64, n)
	pivoted := make([]bool, n)
	// Step k eliminated rows elimRow[elimPtr[k]:elimPtr[k+1]].
	elimRow := make([]int, 0, nnz)
	elimPtr := make([]int, n+1)

	f := &LU{
		n:      n,
		rowOf:  make([]int, n),
		colOf:  make([]int, n),
		rowPtr: slices.Clone(a.RowPtr),
		col:    slices.Clone(a.Col),
		lPtr:   make([]int, n+1),
		uPtr:   make([]int, n+1),
		uCol:   make([]int, 0, nnz),
		w:      make([]float64, n),
		y:      make([]float64, n),
	}
	for k := 0; k < n; k++ {
		clear(colMax)
		for r := 0; r < n; r++ {
			if pivoted[r] {
				continue
			}
			for p := lo[r]; p < hi[r]; p++ {
				if v := math.Abs(vals[p]); v > colMax[cols[p]] {
					colMax[cols[p]] = v
				}
			}
		}
		// Markowitz search: minimize (rownnz-1)(colnnz-1) subject to the
		// threshold.
		bestCost, bestMag := math.MaxInt, 0.0
		pi, pp := -1, -1 // pivot row and the pivot's arena position
		for r := 0; r < n; r++ {
			if pivoted[r] {
				continue
			}
			rc := hi[r] - lo[r] - 1
			for p := lo[r]; p < hi[r]; p++ {
				av := math.Abs(vals[p])
				if av <= floor || av < pivThreshold*colMax[cols[p]] {
					continue
				}
				cost := rc * (colCount[cols[p]] - 1)
				if cost < bestCost || (cost == bestCost && av > bestMag) {
					bestCost, bestMag = cost, av
					pi, pp = r, p
				}
			}
		}
		if pi < 0 {
			return nil, ErrZeroPivot
		}
		pj, piv := cols[pp], vals[pp]
		f.rowOf[k], f.colOf[k] = pi, pj
		pivoted[pi] = true
		stepOf[pi] = k
		plo, phi := lo[pi], hi[pi]
		f.uCol = append(f.uCol, pj)
		for p := plo; p < phi; p++ {
			colCount[cols[p]]--
			if cols[p] != pj {
				f.uCol = append(f.uCol, cols[p])
			}
		}
		f.uPtr[k+1] = len(f.uCol)
		// Subtract m = a[r][pj]/piv times the pivot row from every active
		// row holding column pj, merging the two sorted rows into a new
		// arena row without column pj. A zero m still merges the pivot
		// row's columns in.
		for r := 0; r < n; r++ {
			if pivoted[r] {
				continue
			}
			at, found := slices.BinarySearch(cols[lo[r]:hi[r]], pj)
			if !found {
				continue
			}
			elimRow = append(elimRow, r)
			m := vals[lo[r]+at] / piv
			start := len(cols)
			p, q := lo[r], plo
			for p < hi[r] || q < phi {
				switch {
				case q == phi || (p < hi[r] && cols[p] < cols[q]):
					if cols[p] != pj {
						cols, vals = append(cols, cols[p]), append(vals, vals[p])
					}
					p++
				case p == hi[r] || cols[q] < cols[p]:
					v := 0.0
					if m != 0 {
						v -= m * vals[q]
					}
					colCount[cols[q]]++
					cols, vals = append(cols, cols[q]), append(vals, v)
					q++
				default:
					if cols[p] != pj {
						v := vals[p]
						if m != 0 {
							v -= m * vals[q]
						}
						cols, vals = append(cols, cols[p]), append(vals, v)
					}
					p++
					q++
				}
			}
			lo[r], hi[r] = start, len(cols)
		}
		elimPtr[k+1] = len(elimRow)
	}

	// L row stepOf[r] lists the steps that eliminated row r; walking the
	// steps in order keeps each row's list increasing.
	for _, r := range elimRow {
		f.lPtr[stepOf[r]+1]++
	}
	for k := 0; k < n; k++ {
		f.lPtr[k+1] += f.lPtr[k]
	}
	next := slices.Clone(f.lPtr[:n])
	f.lStep = make([]int, len(elimRow))
	for k := 0; k < n; k++ {
		for _, r := range elimRow[elimPtr[k]:elimPtr[k+1]] {
			f.lStep[next[stepOf[r]]] = k
			next[stepOf[r]]++
		}
	}
	f.lVal = make([]float64, len(f.lStep))
	f.uVal = make([]float64, len(f.uCol))
	return f, nil
}

// share returns a factorization over f's analysis — the pivot sequence and
// the L and U structure, which Refactor and Solve only read — with value and
// work arrays of its own.
func (f *LU) share() *LU {
	g := *f
	g.lVal = make([]float64, len(f.lVal))
	g.uVal = make([]float64, len(f.uVal))
	g.w = make([]float64, len(f.w))
	g.y = make([]float64, len(f.y))
	return &g
}

// Refactor repeats the numeric factorization for a matrix with the pattern
// passed to Factor, over the recorded pivot sequence and structure. It is a
// row-by-row elimination through one dense work row: each entry receives
// its updates in pivot-step order, as in the analysis, and nothing is
// allocated. It returns ErrPattern for a matrix with a different pattern
// and ErrZeroPivot if a recorded pivot has become negligible; in both cases
// the caller should fall back to Factor.
func (f *LU) Refactor(a *CSR) error {
	if a.N != f.n || !slices.Equal(a.RowPtr, f.rowPtr) || !slices.Equal(a.Col, f.col) {
		return ErrPattern
	}
	scale := a.MaxAbs()
	if f.n > 0 && scale == 0 {
		return ErrZeroPivot
	}
	floor := scale * pivRelFloor
	n := f.n
	w, rowOf, colOf := f.w[:n], f.rowOf[:n], f.colOf[:n]
	lPtr, lStep, lVal := f.lPtr[:n+1], f.lStep, f.lVal[:len(f.lStep)]
	uPtr, uCol, uVal := f.uPtr[:n+1], f.uCol, f.uVal[:len(f.uCol)]
	rowPtr, aCol, aVal := a.RowPtr[:n+1], a.Col, a.Val[:len(a.Col)]
	for k, r := range rowOf {
		for p := rowPtr[r]; p < rowPtr[r+1]; p++ {
			w[aCol[p]] += aVal[p]
		}
		for p := lPtr[k]; p < lPtr[k+1]; p++ {
			s := lStep[p]
			c := colOf[s]
			u0, u1 := uPtr[s], uPtr[s+1]
			m := w[c] / uVal[u0]
			w[c] = 0
			lVal[p] = m
			if m == 0 {
				continue
			}
			for q := u0 + 1; q < u1; q++ {
				w[uCol[q]] -= m * uVal[q]
			}
		}
		u0, u1 := uPtr[k], uPtr[k+1]
		for q := u0; q < u1; q++ {
			uVal[q] = w[uCol[q]]
			w[uCol[q]] = 0
		}
		if math.Abs(uVal[u0]) <= floor {
			return ErrZeroPivot
		}
	}
	return nil
}

// Solve solves A·x = b. b is not modified; x receives the solution. Both
// must have length N. x and b may be the same slice.
func (f *LU) Solve(b, x []float64) {
	n := f.n
	if len(b) != n || len(x) != n {
		panic("sparse: Solve dimension mismatch")
	}
	// Forward substitution, L row by L row; b is read only here, so x may
	// alias it.
	y, rowOf, colOf := f.y[:n], f.rowOf[:n], f.colOf[:n]
	lPtr, lStep, lVal := f.lPtr[:n+1], f.lStep, f.lVal[:len(f.lStep)]
	for k, r := range rowOf {
		s := b[r]
		for p := lPtr[k]; p < lPtr[k+1]; p++ {
			s -= lVal[p] * y[lStep[p]]
		}
		y[k] = s
	}
	// Back substitution. Every non-pivot column of U row k is pivoted at a
	// later step, so its solution component is final when k runs downwards.
	uPtr, uCol, uVal := f.uPtr[:n+1], f.uCol, f.uVal[:len(f.uCol)]
	for k := n - 1; k >= 0; k-- {
		u0, u1 := uPtr[k], uPtr[k+1]
		s := y[k]
		for q := u0 + 1; q < u1; q++ {
			s -= uVal[q] * x[uCol[q]]
		}
		x[colOf[k]] = s / uVal[u0]
	}
}
