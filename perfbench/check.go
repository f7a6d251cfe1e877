package main

import (
	"fmt"
	"math"
	"math/rand"

	"latchchar"
	"latchchar/internal/stf"
)

// hGate is the accuracy bar every fast-path contour point is held to: the
// exact (no chord, no bypass) scalar evaluator must see |h| ≤ 3 µV there.
const hGate = 3e-6

// probeGate bounds warm Monte-Carlo probe points: the flow polishes probes
// only to its documented warm-probe residual tolerance (1e-4 V), plus the
// fast-path gate.
const probeGate = 1e-4 + hGate

// tfGate bounds how far an op's calibrated measurement time tf may sit from
// the exact calibration's. The fast-path calibration transient lands within
// about 1.5 fs of it on every shipped cell; on the flat setup arm of the
// tgate contour that alone moves h by ~13 µV, which is why contour points
// are held to hGate at the op's own calibration and the calibration is
// checked here, separately.
const tfGate = 10e-15

// minPoints is the fewest contour points an op may return and still count.
const minPoints = 8

// oracle is the independent reference every op's output is checked against:
// the exact scalar path (no chord iterations, no device bypass, no block
// lanes). Entries are cached for repeating inputs.
type oracle struct {
	entries map[string]*oracleEntry
}

type oracleEntry struct {
	cal   latchchar.Calibration // the exact calibration
	opCal latchchar.Calibration // the calibration ev evaluates at
	ev    *latchchar.Evaluator
}

func newOracle() *oracle { return &oracle{entries: map[string]*oracleEntry{}} }

// exact checks an op's calibration against the exact calibration of the
// input's cell and returns an exact evaluator measuring h at the op's
// calibration.
func (o *oracle) exact(in input, opCal latchchar.Calibration) (*latchchar.Evaluator, error) {
	key := in.key
	e := o.entries[key]
	if e == nil {
		ref, err := latchchar.NewEvaluator(in.cell, latchchar.EvalConfig{})
		if err != nil {
			return nil, fmt.Errorf("exact evaluator for %s: %w", key, err)
		}
		e = &oracleEntry{cal: ref.Calibration()}
		if in.hot {
			o.entries[key] = e
		}
	}
	if d := math.Abs(e.cal.Tf - opCal.Tf); d > tfGate || e.cal.R != opCal.R || e.cal.Rising != opCal.Rising {
		return nil, fmt.Errorf("%s: calibration tf %.6g s is %.3g s from the exact calibration (gate %.3g s)",
			key, opCal.Tf, d, tfGate)
	}
	if e.ev == nil || e.opCal != opCal {
		ev, err := exactAt(in.cell, opCal)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", key, err)
		}
		e.ev, e.opCal = ev, opCal
	}
	return e.ev, nil
}

// exactAt builds an exact evaluator for cell that measures h at the given
// calibration, without a calibration transient of its own. Ops whose
// calibration is not separately checked — Monte-Carlo samples, cold serve
// requests — are checked at their own calibration this way.
func exactAt(cell *latchchar.Cell, cal latchchar.Calibration) (*latchchar.Evaluator, error) {
	inst, err := cell.Build()
	if err != nil {
		return nil, err
	}
	ev, err := stf.NewEvaluatorWithCalibration(inst, latchchar.EvalConfig{}, cal)
	if err != nil {
		return nil, fmt.Errorf("exact evaluator: %w", err)
	}
	return ev, nil
}

// checkPoints evaluates n randomly chosen points of pts on the exact
// evaluator and requires |h| ≤ gate at each.
func checkPoints(ev *latchchar.Evaluator, pts []latchchar.ContourPoint, n int, gate float64, rng *rand.Rand) error {
	if len(pts) == 0 {
		return fmt.Errorf("no points to check")
	}
	for k := 0; k < n; k++ {
		p := pts[rng.Intn(len(pts))]
		h, err := ev.Eval(p.TauS, p.TauH)
		if err != nil {
			return fmt.Errorf("exact eval at (%g, %g): %w", p.TauS, p.TauH, err)
		}
		if math.Abs(h) > gate {
			return fmt.Errorf("point (%.4g ps, %.4g ps) misses the exact equation by %.3g V (gate %.3g V)",
				p.TauS*1e12, p.TauH*1e12, math.Abs(h), gate)
		}
	}
	return nil
}

// checkContour verifies one traced contour: enough points, an accurate
// calibration, and sampled points on the exact curve.
func (o *oracle) checkContour(in input, res *latchchar.Result, rng *rand.Rand) error {
	if res == nil || res.Contour == nil || len(res.Contour.Points) < minPoints {
		return fmt.Errorf("%s: contour too short", in.key)
	}
	ev, err := o.exact(in, res.Calibration)
	if err != nil {
		return err
	}
	if err := checkPoints(ev, res.Contour.Points, 3, hGate, rng); err != nil {
		return fmt.Errorf("%s: %w", in.key, err)
	}
	return nil
}

// opRNG seeds the point sampling of op i's check.
func opRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
}

// The identity guards compare results at these tolerances, not bit for bit:
// the program itself is not bit-reproducible (two fresh engines on the same
// tspc or c2mos input trace points that differ by up to ~5e-24 s, gradients
// by ~1e-14 relative, with identical work counts), so a bitwise guard would
// fire on the program rather than on the drive. The tolerances sit twelve
// orders of magnitude below the skews and far below any solver tolerance.
const (
	tauMatch  = 1e-21 // s
	hMatch    = 1e-12 // V
	gradMatch = 1e-9  // relative
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// contourDiff describes how two contours differ beyond the guard
// tolerances; "" means they are the same contour (equal length, closure and
// corrector iterations; points, residuals and gradients within tolerance).
func contourDiff(a, b *latchchar.Contour) string {
	if a == nil || b == nil {
		if a == b {
			return ""
		}
		return "one contour is missing"
	}
	if len(a.Points) != len(b.Points) || a.Closed != b.Closed {
		return fmt.Sprintf("%d vs %d points", len(a.Points), len(b.Points))
	}
	var dTau, dH, dGrad float64
	iters := 0
	for i, p := range a.Points {
		q := b.Points[i]
		if p.CorrectorIters != q.CorrectorIters {
			iters++
		}
		dTau = math.Max(dTau, math.Max(math.Abs(p.TauS-q.TauS), math.Abs(p.TauH-q.TauH)))
		dH = math.Max(dH, math.Abs(p.H-q.H))
		dGrad = math.Max(dGrad, math.Max(relDiff(p.DhdS, q.DhdS), relDiff(p.DhdH, q.DhdH)))
	}
	if iters == 0 && dTau <= tauMatch && dH <= hMatch && dGrad <= gradMatch {
		return ""
	}
	return fmt.Sprintf("max |Δτ| %.3g s, |Δh| %.3g V, gradient %.3g relative, corrector iterations differ at %d points",
		dTau, dH, dGrad, iters)
}

func relDiff(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}
