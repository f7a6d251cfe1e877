package surface

import (
	"math"
	"testing"
)

func BenchmarkContourExtraction(b *testing.B) {
	sf, err := GenerateBlock(Linspace(-1, 1, 101), Linspace(-1, 1, 101),
		analyticFactory(func(s, h float64) float64 {
			return math.Tanh((s*s + h*h - 0.36) / 0.05)
		}), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if polys := sf.Contour(0); len(polys) == 0 {
			b.Fatal("no contour")
		}
	}
}

func BenchmarkDeviation(b *testing.B) {
	sf, err := GenerateBlock(Linspace(-1, 1, 101), Linspace(-1, 1, 101),
		analyticFactory(func(s, h float64) float64 { return s*s + h*h }), 1)
	if err != nil {
		b.Fatal(err)
	}
	polys := sf.Contour(0.36)
	pts := make([][2]float64, 40)
	for i := range pts {
		th := float64(i) / 40 * 2 * math.Pi
		pts[i] = [2]float64{0.6 * math.Cos(th), 0.6 * math.Sin(th)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Deviation(pts, polys); err != nil {
			b.Fatal(err)
		}
	}
}
