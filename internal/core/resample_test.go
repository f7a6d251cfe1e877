package core

import (
	"context"
	"errors"
	"math"
	"testing"
)

func TestResampleCircleUniformSpacing(t *testing.T) {
	c := &circle{r: 1}
	ct, err := TraceContour(c, 1.05, 0.02, TraceOptions{
		Step:      0.07,
		MaxPoints: 40,
		MPNR:      MPNROptions{MaxStep: 10, HTol: 1e-10},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	rs, err := ResampleContour(c, ct, n, MPNROptions{MaxStep: 10, HTol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Points) != n {
		t.Fatalf("points: %d", len(rs.Points))
	}
	// All points on the circle.
	for i, p := range rs.Points {
		if r := math.Hypot(p.TauS, p.TauH); math.Abs(r-1) > 1e-8 {
			t.Errorf("point %d radius %v", i, r)
		}
	}
	// Spacing approximately uniform (within 30%, tolerance for the
	// polish pulling points slightly along the normal).
	var ds []float64
	for i := 1; i < n; i++ {
		ds = append(ds, math.Hypot(rs.Points[i].TauS-rs.Points[i-1].TauS,
			rs.Points[i].TauH-rs.Points[i-1].TauH))
	}
	mean := 0.0
	for _, d := range ds {
		mean += d
	}
	mean /= float64(len(ds))
	for i, d := range ds {
		if math.Abs(d-mean)/mean > 0.3 {
			t.Errorf("segment %d length %v deviates from mean %v", i, d, mean)
		}
	}
	// Cheap: about one gradient evaluation per point.
	if rs.GradEvals > 3*n {
		t.Errorf("resampling cost %d gradient evals for %d points", rs.GradEvals, n)
	}
}

func TestResampleEndpointsPreserved(t *testing.T) {
	hp := &hyperbola{a: 0.1, b: 0.05, c: 0.01}
	ct, err := TraceContour(hp, 0.2, 0.2, TraceOptions{
		Step:      0.02,
		MaxPoints: 20,
		MPNR:      MPNROptions{MaxStep: 10, HTol: 1e-12},
	})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ResampleContour(hp, ct, 8, MPNROptions{MaxStep: 10, HTol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	first, last := ct.Points[0], ct.Points[len(ct.Points)-1]
	if math.Hypot(rs.Points[0].TauS-first.TauS, rs.Points[0].TauH-first.TauH) > 1e-9 {
		t.Error("first endpoint moved")
	}
	if math.Hypot(rs.Points[7].TauS-last.TauS, rs.Points[7].TauH-last.TauH) > 1e-9 {
		t.Error("last endpoint moved")
	}
}

func TestResampleValidation(t *testing.T) {
	c := &circle{r: 1}
	ct := &Contour{Points: []Point{{TauS: 1, TauH: 0}}}
	if _, err := ResampleContour(c, ct, 5, MPNROptions{}); err == nil {
		t.Error("single-point contour accepted")
	}
	ct2 := &Contour{Points: []Point{{TauS: 1}, {TauS: 1}}}
	if _, err := ResampleContour(c, ct2, 5, MPNROptions{}); err == nil {
		t.Error("zero-length contour accepted")
	}
	ct3 := &Contour{Points: []Point{{TauS: 1}, {TauS: 0.9, TauH: 0.1}}}
	if _, err := ResampleContour(c, ct3, 1, MPNROptions{}); err == nil {
		t.Error("n=1 accepted")
	}
}

// TestResampleContourErrorChain pins how ResampleContour reports a failed
// and a canceled polish: the wrapped error chain, the points kept and the
// gradient evaluations spent.
func TestResampleContourErrorChain(t *testing.T) {
	ct := &Contour{Points: []Point{{TauS: 0, TauH: 1}, {TauS: 1, TauH: 0}}}
	boom := errors.New("boom")
	cases := []struct {
		name      string
		setup     func(cancel context.CancelCauseFunc) *scripted
		points    int
		gradEvals int
		is        []error
		msg       string
	}{
		{
			name:      "evaluation fails",
			setup:     func(context.CancelCauseFunc) *scripted { return &scripted{failAt: 2, err: boom} },
			points:    1,
			gradEvals: 1,
			is:        []error{boom},
			msg:       "core: resample point 1 at (0.5, 0.5): core: mpnr failed near (τs=0 s, τh=0 s): boom",
		},
		{
			name: "canceled",
			setup: func(cancel context.CancelCauseFunc) *scripted {
				return &scripted{hook: func(call int) {
					if call == 2 {
						cancel(nil)
					}
				}}
			},
			points:    2,
			gradEvals: 2,
			is:        []error{ErrCanceled, context.Canceled},
			msg:       "core: resample canceled near (τs=0 s, τh=0 s) after 2 contour points: core: mpnr canceled near (τs=0 s, τh=0 s): context canceled",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancelCause(context.Background())
			defer cancel(nil)
			out, err := ResampleContourCtx(ctx, tc.setup(cancel), ct, 3, MPNROptions{})
			if err == nil || err.Error() != tc.msg {
				t.Errorf("err = %v\nwant  %s", err, tc.msg)
			}
			for _, target := range tc.is {
				if !errors.Is(err, target) {
					t.Errorf("errors.Is(err, %v) = false", target)
				}
			}
			if len(out.Points) != tc.points || out.GradEvals != tc.gradEvals {
				t.Errorf("kept %d points after %d gradient evaluations, want %d after %d",
					len(out.Points), out.GradEvals, tc.points, tc.gradEvals)
			}
		})
	}
}
