// Package sample provides deterministic, index-addressable sample sources
// over the unit hypercube [0,1)ᵈ — the generators behind statistical process
// sampling. Three schemes are offered: independent pseudo-random draws
// (IID), Latin-hypercube stratification (LHS) and an Owen-scrambled Sobol
// sequence — the two quasi-Monte-Carlo designs cut the 1/√N error scaling of
// plain Monte-Carlo on the smooth low-dimensional integrands process
// variation produces.
//
// Every Source is a pure function of (seed, index): At(i) returns the same
// point no matter which goroutine asks, in which order, or how the indices
// are partitioned across workers. That is the stream-splitting contract a
// work-stealing pool needs — callers draw sample i when they get to it, and
// the aggregate sample set is bitwise identical at any parallelism.
package sample

import (
	"fmt"
	"math"
)

// Source yields the points of a d-dimensional low-discrepancy (or
// pseudo-random) sequence in [0,1)ᵈ.
type Source interface {
	// Dim returns the point dimensionality.
	Dim() int
	// At fills p (length ≥ Dim) with point i ≥ 0 of the sequence. At is a
	// pure function of the source's seed and i, safe for concurrent use.
	At(i int, p []float64)
}

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche mix used as
// the counter-based randomness primitive throughout this package.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// unit maps 64 bits of randomness onto [0,1) with full float64 resolution.
func unit(x uint64) float64 {
	return float64(x>>11) / (1 << 53)
}

// IID is the independent pseudo-random source: coordinate d of point i is a
// counter-based hash of (seed, i, d), so it needs no state and no draw
// order.
type IID struct {
	seed uint64
	dim  int
}

// NewIID returns an independent uniform source of the given dimension.
func NewIID(seed int64, dim int) (*IID, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("sample: dimension must be ≥ 1, got %d", dim)
	}
	return &IID{seed: uint64(seed), dim: dim}, nil
}

// Dim returns the point dimensionality.
func (s *IID) Dim() int { return s.dim }

// At fills p with point i.
func (s *IID) At(i int, p []float64) {
	base := splitmix64(s.seed ^ 0xA5A5A5A5A5A5A5A5)
	for d := 0; d < s.dim; d++ {
		p[d] = unit(splitmix64(base ^ splitmix64(uint64(i)<<20|uint64(d))))
	}
}

// LHS is a Latin-hypercube design over a fixed sample count n: each axis is
// divided into n equal strata and each stratum is hit exactly once, with the
// within-stratum position jittered. Marginal uniformity is therefore exact
// by construction, which is what removes most of the variance of axis-wise
// statistics.
type LHS struct {
	seed  uint64
	dim   int
	n     int
	perms [][]int32 // perms[d][i] = stratum of point i on axis d
}

// NewLHS returns a Latin-hypercube source for exactly n points of the given
// dimension. Unlike the other sources an LHS design is a function of n: At
// panics on indices outside [0, n).
func NewLHS(seed int64, dim, n int) (*LHS, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("sample: dimension must be ≥ 1, got %d", dim)
	}
	if n <= 0 {
		return nil, fmt.Errorf("sample: LHS needs a positive sample count, got %d", n)
	}
	s := &LHS{seed: uint64(seed), dim: dim, n: n, perms: make([][]int32, dim)}
	for d := range s.perms {
		perm := make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		// Seeded Fisher-Yates: the permutation depends only on (seed, d, n).
		state := splitmix64(s.seed ^ splitmix64(uint64(d)+0xD1B54A32D192ED03))
		for i := n - 1; i > 0; i-- {
			state = splitmix64(state)
			j := int(state % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		s.perms[d] = perm
	}
	return s, nil
}

// Dim returns the point dimensionality.
func (s *LHS) Dim() int { return s.dim }

// N returns the design's sample count.
func (s *LHS) N() int { return s.n }

// At fills p with point i of the design.
func (s *LHS) At(i int, p []float64) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("sample: LHS index %d outside design [0, %d)", i, s.n))
	}
	for d := 0; d < s.dim; d++ {
		jitter := unit(splitmix64(s.seed ^ splitmix64(uint64(d)<<32|uint64(i)+0x9E3779B9)))
		p[d] = (float64(s.perms[d][i]) + jitter) / float64(s.n)
	}
}

// sobolMaxDim bounds the Sobol dimensionality: direction numbers are baked
// in for the first 8 dimensions (new-joe-kuo-6 initialization), which covers
// the process axes with headroom.
const sobolMaxDim = 8

// joeKuo carries the primitive-polynomial degree s, coefficient word a and
// initial direction numbers m for Sobol dimensions 2..8 (dimension 1 is the
// van der Corput sequence).
var joeKuo = []struct {
	s int
	a uint32
	m []uint32
}{
	{1, 0, []uint32{1}},
	{2, 1, []uint32{1, 3}},
	{3, 1, []uint32{1, 3, 1}},
	{3, 2, []uint32{1, 1, 1}},
	{4, 1, []uint32{1, 1, 3, 3}},
	{4, 4, []uint32{1, 3, 5, 13}},
	{5, 2, []uint32{1, 1, 5, 5, 17}},
}

// Sobol is an Owen-scrambled Sobol sequence: the base-2 digital (t,s)-net
// whose prefixes fill the hypercube far more evenly than random points
// (discrepancy O(log(N)ᵈ/N)), with a seeded nested-uniform scramble per
// dimension so distinct seeds give statistically independent randomizations
// while preserving the net structure. The raw origin point needs no special
// casing: the scramble maps it to a uniformly random point of the stream.
type Sobol struct {
	seed uint64
	dim  int
	v    [][32]uint32 // direction numbers per dimension
}

// NewSobol returns a scrambled Sobol source of the given dimension (≤ 8).
func NewSobol(seed int64, dim int) (*Sobol, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("sample: dimension must be ≥ 1, got %d", dim)
	}
	if dim > sobolMaxDim {
		return nil, fmt.Errorf("sample: Sobol supports up to %d dimensions, got %d", sobolMaxDim, dim)
	}
	s := &Sobol{seed: uint64(seed), dim: dim, v: make([][32]uint32, dim)}
	for d := 0; d < dim; d++ {
		v := &s.v[d]
		if d == 0 {
			for k := 0; k < 32; k++ {
				v[k] = 1 << (31 - k)
			}
			continue
		}
		p := joeKuo[d-1]
		for k := 0; k < p.s; k++ {
			v[k] = p.m[k] << (31 - k)
		}
		// Bratley-Fox recurrence for the remaining direction numbers.
		for k := p.s; k < 32; k++ {
			v[k] = v[k-p.s] ^ (v[k-p.s] >> uint(p.s))
			for j := 1; j < p.s; j++ {
				if (p.a>>(p.s-1-j))&1 == 1 {
					v[k] ^= v[k-j]
				}
			}
		}
	}
	return s, nil
}

// Dim returns the point dimensionality.
func (s *Sobol) Dim() int { return s.dim }

// At fills p with point i of the scrambled sequence.
func (s *Sobol) At(i int, p []float64) {
	// Closed-form Gray-code expansion: every index is independently
	// addressable, and any aligned 2ᵏ-point prefix keeps the net property.
	g := uint32(i) ^ uint32(i)>>1
	for d := 0; d < s.dim; d++ {
		var x uint32
		for b := 0; g>>uint(b) != 0; b++ {
			if g>>uint(b)&1 == 1 {
				x ^= s.v[d][b]
			}
		}
		key := splitmix64(s.seed ^ splitmix64(uint64(d)+0xBF58476D1CE4E5B9))
		p[d] = float64(owenScramble(x, key)) / (1 << 32)
	}
}

// owenScramble applies a hash-based nested-uniform (Owen) scramble to the 32
// binary digits of x: the flip of digit ℓ depends only on the digits above
// it, so nested dyadic intervals stay nested and the net's equidistribution
// survives the randomization.
func owenScramble(x uint32, key uint64) uint32 {
	var out uint32
	for l := 0; l < 32; l++ {
		bit := x >> (31 - l) & 1
		prefix := uint64(0)
		if l > 0 {
			prefix = uint64(x >> (32 - l))
		}
		h := splitmix64(key ^ splitmix64(prefix<<6|uint64(l)))
		out = out<<1 | bit ^ uint32(h&1)
	}
	return out
}

// Normal maps a uniform variate u ∈ (0,1) onto a standard normal via the
// inverse CDF (Acklam's rational approximation, |relative error| < 1.15e-9).
// The inverse-CDF transform — unlike Box-Muller — preserves the
// stratification structure of LHS and Sobol points, which is what carries
// their variance reduction through to Gaussian process parameters. Inputs at
// or beyond the open interval are clamped to ±~8.2σ.
func Normal(u float64) float64 {
	const tiny = 1e-16
	if u <= tiny {
		u = tiny
	} else if u >= 1-1e-16 {
		u = 1 - 1e-16
	}
	const (
		pLow  = 0.02425
		pHigh = 1 - pLow
	)
	var (
		a = [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
			1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
		b = [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
			6.680131188771972e+01, -1.328068155288572e+01}
		c = [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
			-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
		d = [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
			3.754408661907416e+00}
	)
	switch {
	case u < pLow:
		q := math.Sqrt(-2 * math.Log(u))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case u <= pHigh:
		q := u - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-u))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}
