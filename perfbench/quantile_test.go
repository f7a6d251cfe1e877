package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestBetaInc(t *testing.T) {
	for _, c := range []struct{ a, b, x, want float64 }{
		{1, 1, 0.3, 0.3},
		{2, 3, 0.4, 0.5248},
		{0.5, 0.5, 0.5, 0.5},
		{10, 2, 0.9, 0.6973568802},
	} {
		if got := betaInc(c.a, c.b, c.x); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("I_%g(%g, %g) = %g, want %g", c.x, c.a, c.b, got, c.want)
		}
	}
}

func TestQuantileHarrellDavis(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vs := make([]float64, 5000)
	for i := range vs {
		vs[i] = rng.NormFloat64()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if hd, emp := quantile(vs, q), s[int(q*float64(len(s)-1))]; math.Abs(hd-emp) > 0.05 {
			t.Errorf("q=%g: Harrell–Davis %g, sample quantile %g", q, hd, emp)
		}
	}
	if got := quantile([]float64{3, 3, 3, 3, 3, 3, 3}, 0.99); math.Abs(got-3) > 1e-9 {
		t.Errorf("constant sample: %g, want 3 (weights must sum to one)", got)
	}
	if got := quantile([]float64{1, 2, 3, 4, 5}, 0.5); math.Abs(got-3) > 1e-9 {
		t.Errorf("median of 1..5: %g, want 3", got)
	}
}
