package surface

import (
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

func TestLinspace(t *testing.T) {
	v := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(v[i]-want[i]) > 1e-15 {
			t.Fatalf("v = %v", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("n=1 should panic")
		}
	}()
	Linspace(0, 1, 1)
}

func analyticFactory(f func(s, h float64) float64) BlockFactory {
	return func() (BlockEvalFunc, error) {
		return func(s float64, h, out []float64) error {
			for j := range h {
				out[j] = f(s, h[j])
			}
			return nil
		}, nil
	}
}

func TestGenerateFillsGrid(t *testing.T) {
	sAxis := Linspace(0, 1, 11)
	hAxis := Linspace(0, 2, 21)
	sf, err := GenerateBlock(sAxis, hAxis, analyticFactory(func(s, h float64) float64 { return s + 10*h }), 4)
	if err != nil {
		t.Fatal(err)
	}
	if sf.NumSamples() != 11*21 {
		t.Errorf("NumSamples = %d", sf.NumSamples())
	}
	for i, s := range sf.S {
		for j, h := range sf.H {
			if math.Abs(sf.At(i, j)-(s+10*h)) > 1e-12 {
				t.Fatalf("V[%d][%d] = %v", i, j, sf.At(i, j))
			}
		}
	}
}

func TestGenerateParallelUsesIndependentEvaluators(t *testing.T) {
	var built int32
	factory := func() (BlockEvalFunc, error) {
		atomic.AddInt32(&built, 1)
		return analyticFactory(func(s, h float64) float64 { return s * h })()
	}
	if _, err := GenerateBlock(Linspace(0, 1, 20), Linspace(0, 1, 20), factory, 4); err != nil {
		t.Fatal(err)
	}
	if built != 4 {
		t.Errorf("factory built %d evaluators, want 4", built)
	}
}

func TestGeneratePropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	factory := func() (BlockEvalFunc, error) {
		return func(s float64, h, out []float64) error {
			if s > 0.5 {
				return boom
			}
			return nil
		}, nil
	}
	if _, err := GenerateBlock(Linspace(0, 1, 10), Linspace(0, 1, 10), factory, 2); !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
	badFactory := func() (BlockEvalFunc, error) { return nil, boom }
	if _, err := GenerateBlock(Linspace(0, 1, 4), Linspace(0, 1, 4), badFactory, 2); !errors.Is(err, boom) {
		t.Errorf("factory err = %v", err)
	}
}

func TestGenerateValidatesAxes(t *testing.T) {
	f := analyticFactory(func(s, h float64) float64 { return 0 })
	if _, err := GenerateBlock([]float64{0}, Linspace(0, 1, 3), f, 1); err == nil {
		t.Error("single-point axis accepted")
	}
	if _, err := GenerateBlock([]float64{1, 0}, Linspace(0, 1, 3), f, 1); err == nil {
		t.Error("descending axis accepted")
	}
}

func TestContourOfLinearField(t *testing.T) {
	// f = s + h; contour at level 1 is the line s + h = 1.
	sf, err := GenerateBlock(Linspace(0, 1, 21), Linspace(0, 1, 21),
		analyticFactory(func(s, h float64) float64 { return s + h }), 1)
	if err != nil {
		t.Fatal(err)
	}
	polys := sf.Contour(1)
	if len(polys) == 0 {
		t.Fatal("no contour found")
	}
	count := 0
	for _, pl := range polys {
		for _, p := range pl.Pts {
			if math.Abs(p[0]+p[1]-1) > 1e-9 {
				t.Fatalf("contour point off the line: %v", p)
			}
			count++
		}
	}
	if count < 20 {
		t.Errorf("too few contour points: %d", count)
	}
}

func TestContourOfCircleField(t *testing.T) {
	// f = s² + h²; contour at level r² is a circle. Interpolated points
	// land within one cell diagonal of the true circle.
	n := 81
	sf, err := GenerateBlock(Linspace(-1, 1, n), Linspace(-1, 1, n),
		analyticFactory(func(s, h float64) float64 { return s*s + h*h }), 2)
	if err != nil {
		t.Fatal(err)
	}
	const r = 0.6
	polys := sf.Contour(r * r)
	if len(polys) == 0 {
		t.Fatal("no contour")
	}
	cell := 2.0 / float64(n-1)
	for _, pl := range polys {
		for _, p := range pl.Pts {
			rad := math.Hypot(p[0], p[1])
			if math.Abs(rad-r) > cell {
				t.Fatalf("point %v radius %v, want %v ± %v", p, rad, r, cell)
			}
		}
	}
	// A circle contour should link into one long closed-ish polyline.
	if polys[0].Len() < 40 {
		t.Errorf("main polyline too short: %d", polys[0].Len())
	}
}

func TestContourEmptyWhenLevelOutside(t *testing.T) {
	sf, err := GenerateBlock(Linspace(0, 1, 5), Linspace(0, 1, 5),
		analyticFactory(func(s, h float64) float64 { return s }), 1)
	if err != nil {
		t.Fatal(err)
	}
	if polys := sf.Contour(5); len(polys) != 0 {
		t.Errorf("expected no contour, got %d polylines", len(polys))
	}
}

func TestContourSaddleCellsHandled(t *testing.T) {
	// f = s·h has a saddle at the origin; the contour at 0 must not crash
	// and must produce points on the axes.
	sf, err := GenerateBlock(Linspace(-1, 1, 21), Linspace(-1, 1, 21),
		analyticFactory(func(s, h float64) float64 { return s * h }), 1)
	if err != nil {
		t.Fatal(err)
	}
	polys := sf.Contour(0.25)
	if len(polys) == 0 {
		t.Fatal("no contour")
	}
	for _, pl := range polys {
		for _, p := range pl.Pts {
			if math.Abs(p[0]*p[1]-0.25) > 0.05 {
				t.Fatalf("point %v violates s·h=0.25", p)
			}
		}
	}
}

func TestPointSegDist(t *testing.T) {
	// Perpendicular case.
	if d := pointSegDist([2]float64{0, 1}, [2]float64{-1, 0}, [2]float64{1, 0}); math.Abs(d-1) > 1e-14 {
		t.Errorf("perp: %v", d)
	}
	// Beyond the segment end: distance to the endpoint.
	if d := pointSegDist([2]float64{2, 1}, [2]float64{-1, 0}, [2]float64{1, 0}); math.Abs(d-math.Sqrt2) > 1e-14 {
		t.Errorf("end: %v", d)
	}
	// Degenerate segment.
	if d := pointSegDist([2]float64{3, 4}, [2]float64{0, 0}, [2]float64{0, 0}); math.Abs(d-5) > 1e-14 {
		t.Errorf("degenerate: %v", d)
	}
}

func TestDeviation(t *testing.T) {
	ref := []Polyline{{Pts: [][2]float64{{0, 0}, {1, 0}, {2, 0}}}}
	pts := [][2]float64{{0.5, 0.1}, {1.5, 0.3}}
	max, mean, err := Deviation(pts, ref)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(max-0.3) > 1e-14 || math.Abs(mean-0.2) > 1e-14 {
		t.Errorf("max=%v mean=%v", max, mean)
	}
	if _, _, err := Deviation(nil, ref); err == nil {
		t.Error("empty points accepted")
	}
	if _, _, err := Deviation(pts, nil); err == nil {
		t.Error("empty reference accepted")
	}
}

func TestDistanceToPointSinglePointPolyline(t *testing.T) {
	polys := []Polyline{{Pts: [][2]float64{{1, 1}}}}
	if d := DistanceToPoint([2]float64{1, 2}, polys); math.Abs(d-1) > 1e-14 {
		t.Errorf("d = %v", d)
	}
}

// Property: marching squares of a monotone field crosses every grid column
// exactly once (single-valued contour), so linking yields one polyline.
func TestContourMonotoneFieldSinglePolyline(t *testing.T) {
	sf, err := GenerateBlock(Linspace(0, 1, 31), Linspace(0, 1, 31),
		analyticFactory(func(s, h float64) float64 { return s + 0.3*h }), 1)
	if err != nil {
		t.Fatal(err)
	}
	polys := sf.Contour(0.65)
	if len(polys) != 1 {
		t.Fatalf("expected a single polyline, got %d", len(polys))
	}
}

// Property: for random smooth quadratic fields, every marching-squares
// contour point evaluates to the level within the interpolation error bound
// of one cell.
func TestContourRandomQuadraticFieldsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	for trial := 0; trial < 20; trial++ {
		a, b, c := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		d, e := rng.NormFloat64(), rng.NormFloat64()
		field := func(s, h float64) float64 {
			return a*s*s + b*h*h + c*s*h + d*s + e*h
		}
		n := 41
		sf, err := GenerateBlock(Linspace(-1, 1, n), Linspace(-1, 1, n), analyticFactory(field), 1)
		if err != nil {
			t.Fatal(err)
		}
		// Pick a level inside the field's range so a contour exists.
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range sf.V {
			for _, v := range sf.V[i] {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
		}
		if hi-lo < 1e-6 {
			continue
		}
		level := lo + (hi-lo)*(0.25+0.5*rng.Float64())
		polys := sf.Contour(level)
		if len(polys) == 0 {
			t.Fatalf("trial %d: no contour at level %v in [%v, %v]", trial, level, lo, hi)
		}
		// Second-order interpolation error bound: |f''|·cell²/8 with a
		// comfortable safety factor.
		cell := 2.0 / float64(n-1)
		maxCurv := 2 * (math.Abs(a) + math.Abs(b) + math.Abs(c))
		bound := maxCurv*cell*cell + 1e-9
		for _, pl := range polys {
			for _, p := range pl.Pts {
				if err := math.Abs(field(p[0], p[1]) - level); err > bound {
					t.Fatalf("trial %d: contour point off level by %v (bound %v)", trial, err, bound)
				}
			}
		}
	}
}
