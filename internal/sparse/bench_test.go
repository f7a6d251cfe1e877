package sparse

import (
	"math/rand"
	"testing"
)

// circuitLike builds a matrix with the structure of an MNA Jacobian:
// strong diagonal, a few off-diagonal couplings per row, plus a handful of
// dense-ish source rows.
func circuitLike(rng *rand.Rand, n int) *CSR {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 4+rng.Float64())
		for k := 0; k < 3; k++ {
			j := rng.Intn(n)
			if j != i {
				b.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return b.Build()
}

// mnaLike builds a matrix with the shape of the transient Jacobians of the
// built-in latch cells (tspc: n = 12, 55 stored entries): node rows with a
// dominant diagonal and conductance stamps ±g between random node pairs,
// plus voltage-source branch rows whose only entry is the incidence 1 — a
// zero diagonal, so the pivot search must leave the diagonal.
func mnaLike(rng *rand.Rand, nodes, sources, nnz int) *CSR {
	type pair struct{ i, j int }
	seen := make(map[pair]bool)
	b := NewBuilder(nodes + sources)
	for i := 0; i < nodes; i++ {
		b.Add(i, i, 1+rng.Float64())
	}
	for k := 0; k < sources; k++ {
		b.Add(k, nodes+k, 1)
		b.Add(nodes+k, k, 1)
	}
	for count := nodes + 2*sources; count+2 <= nnz; {
		i, j := rng.Intn(nodes), rng.Intn(nodes)
		if i == j || seen[pair{i, j}] {
			continue
		}
		seen[pair{i, j}], seen[pair{j, i}] = true, true
		g := rng.Float64()
		b.Add(i, i, g)
		b.Add(j, j, g)
		b.Add(i, j, -g)
		b.Add(j, i, -g)
		count += 2
	}
	return b.Build()
}

type luCase struct {
	name string
	m    *CSR
}

// luCases are the matrices the LU kernels are timed on: one the size of a
// latch-cell Jacobian and a larger random circuit-like one.
func luCases(rng *rand.Rand) []luCase {
	return []luCase{
		{"n=12", mnaLike(rng, 9, 3, 55)},
		{"n=100", circuitLike(rng, 100)},
	}
}

func BenchmarkFactor(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := circuitLike(rng, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Factor(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRefactor(b *testing.B) {
	for _, tc := range luCases(rand.New(rand.NewSource(2))) {
		b.Run(tc.name, func(b *testing.B) {
			lu, err := Factor(tc.m)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := lu.Refactor(tc.m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range luCases(rng) {
		b.Run(tc.name, func(b *testing.B) {
			lu, err := Factor(tc.m)
			if err != nil {
				b.Fatal(err)
			}
			rhs := make([]float64, tc.m.N)
			x := make([]float64, tc.m.N)
			for i := range rhs {
				rhs[i] = rng.NormFloat64()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lu.Solve(rhs, x)
			}
		})
	}
}

func BenchmarkMulVec(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	m := circuitLike(rng, 200)
	x := make([]float64, m.N)
	y := make([]float64, m.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(x, y)
	}
}

func BenchmarkCombine(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	c := circuitLike(rng, 200)
	g := circuitLike(rng, 200)
	u, mapC, mapG := UnionPattern(c, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Combine(u, 1e12, c, mapC, 1, g, mapG)
	}
}
