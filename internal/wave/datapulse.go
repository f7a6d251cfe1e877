package wave

import (
	"fmt"
	"math"
)

// DataPulse is the parametric data waveform ud(t, τs, τh) of the paper's
// Fig. 2: the line rests at Rest, transitions to Active with its 50% point
// τs before the active clock edge's 50% crossing, holds, and transitions
// back to Rest with its 50% point τh after the edge. The pulse width is
// therefore τs + τh, controlled by the two skews.
//
// The skew derivatives zs = ∂ud/∂τs and zh = ∂ud/∂τh are analytic:
// increasing τs shifts the leading ramp earlier (zs equals the leading
// ramp's time derivative), while increasing τh shifts the trailing ramp
// later (zh equals minus the trailing ramp's time derivative).
type DataPulse struct {
	Edge50       float64 // 50% crossing time of the active clock edge
	Rest, Active float64 // data level before / during the pulse
	Rise, Fall   float64 // leading / trailing transition durations
	Shape        RampShape

	tauS, tauH float64
}

// NewDataPulse constructs a data pulse with zero skews; call SetSkews before
// simulation.
func NewDataPulse(edge50, rest, active, rise, fall float64, shape RampShape) (*DataPulse, error) {
	if rise <= 0 || fall <= 0 {
		return nil, fmt.Errorf("wave: DataPulse rise/fall must be positive, got %g/%g", rise, fall)
	}
	return &DataPulse{
		Edge50: edge50,
		Rest:   rest,
		Active: active,
		Rise:   rise,
		Fall:   fall,
		Shape:  shape,
	}, nil
}

// SetSkews updates the setup and hold skews. It is the single mutation point
// used by the characterization loop between transient evaluations.
func (d *DataPulse) SetSkews(tauS, tauH float64) {
	d.tauS = tauS
	d.tauH = tauH
}

// Skews returns the current (τs, τh).
func (d *DataPulse) Skews() (tauS, tauH float64) { return d.tauS, d.tauH }

// leading ramp interval [a, a+Rise]; 50% at Edge50 − τs.
func (d *DataPulse) leadStart(tauS float64) float64 { return d.Edge50 - tauS - d.Rise/2 }

// trailing ramp interval [b, b+Fall]; 50% at Edge50 + τh.
func (d *DataPulse) trailStart(tauH float64) float64 { return d.Edge50 + tauH - d.Fall/2 }

// V implements Waveform. The two ramps are superposed, so even degenerate
// overlapping-ramp configurations produce a continuous bounded waveform.
func (d *DataPulse) V(t float64) float64 {
	a := d.leadStart(d.tauS)
	s1, _ := d.Shape.ramp(a, a+d.Rise, t)
	b := d.trailStart(d.tauH)
	s2, _ := d.Shape.ramp(b, b+d.Fall, t)
	return d.Rest + (d.Active-d.Rest)*(s1-s2)
}

// DTauS returns zs(t) = ∂ud/∂τs at the current skews. Only the leading ramp
// depends on τs; shifting its start earlier by dτs raises the profile by its
// time derivative.
func (d *DataPulse) DTauS(t float64) float64 {
	a := d.leadStart(d.tauS)
	_, ds1dt := d.Shape.ramp(a, a+d.Rise, t)
	return (d.Active - d.Rest) * ds1dt
}

// DTauH returns zh(t) = ∂ud/∂τh at the current skews. Only the trailing
// ramp depends on τh; shifting its start later by dτh raises the pulse tail
// by its time derivative.
func (d *DataPulse) DTauH(t float64) float64 {
	b := d.trailStart(d.tauH)
	_, ds2dt := d.Shape.ramp(b, b+d.Fall, t)
	return (d.Active - d.Rest) * ds2dt
}

// SupportStart returns the earliest time at which the pulse differs from
// Rest, for the given maximum setup skew; useful for choosing the fine
// integration window.
func (d *DataPulse) SupportStart(maxTauS float64) float64 {
	return d.leadStart(maxTauS)
}

// RestUntil returns the start of the pulse's first ramp at skews (tauS,
// tauH), computed as V computes it. Strictly before it the pulse equals
// Rest and both skew derivatives are zero, bit for bit whatever the skews;
// a NaN skew gives NaN, before which nothing rests.
func (d *DataPulse) RestUntil(tauS, tauH float64) float64 {
	return math.Min(d.leadStart(tauS), d.trailStart(tauH))
}
