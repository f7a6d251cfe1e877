// Package device implements the circuit elements used by the simulator:
// linear resistors and capacitors, independent voltage sources driven by
// waveforms (including the skew-parametric data source), and a
// Shichman-Hodges (SPICE level-1) MOSFET with constant intrinsic
// capacitances. Each device stamps the MNA system through the slot handles
// it acquires in Setup; constant capacitances (the capacitor, and the
// MOSFET's junction and constant gate capacitances) register their C values
// in Setup instead and stamp only their charges on each evaluation.
package device

import (
	"fmt"

	"latchchar/internal/circuit"
)

// Resistor is a linear two-terminal resistor.
type Resistor struct {
	Inst   string
	P, N   circuit.UnknownID
	Ohms   float64
	gSlots [4]circuit.Slot
}

// NewResistor returns a resistor between p and n.
func NewResistor(name string, p, n circuit.UnknownID, ohms float64) (*Resistor, error) {
	if ohms <= 0 {
		return nil, fmt.Errorf("device: resistor %s must have positive resistance, got %g", name, ohms)
	}
	return &Resistor{Inst: name, P: p, N: n, Ohms: ohms}, nil
}

// Name implements circuit.Device.
func (r *Resistor) Name() string { return r.Inst }

// Setup implements circuit.Device.
func (r *Resistor) Setup(ctx *circuit.SetupCtx) error {
	r.gSlots[0] = ctx.G(r.P, r.P)
	r.gSlots[1] = ctx.G(r.P, r.N)
	r.gSlots[2] = ctx.G(r.N, r.P)
	r.gSlots[3] = ctx.G(r.N, r.N)
	return nil
}

// Eval implements circuit.Device.
func (r *Resistor) Eval(ctx *circuit.EvalCtx) {
	g := 1 / r.Ohms
	i := g * (ctx.V(r.P) - ctx.V(r.N))
	ctx.AddF(r.P, i)
	ctx.AddF(r.N, -i)
	ctx.AddG(r.gSlots[0], g)
	ctx.AddG(r.gSlots[1], -g)
	ctx.AddG(r.gSlots[2], -g)
	ctx.AddG(r.gSlots[3], g)
}

// Capacitor is a linear two-terminal capacitor.
type Capacitor struct {
	Inst   string
	P, N   circuit.UnknownID
	Farads float64
}

// NewCapacitor returns a capacitor between p and n.
func NewCapacitor(name string, p, n circuit.UnknownID, farads float64) (*Capacitor, error) {
	if farads <= 0 {
		return nil, fmt.Errorf("device: capacitor %s must have positive capacitance, got %g", name, farads)
	}
	return &Capacitor{Inst: name, P: p, N: n, Farads: farads}, nil
}

// Name implements circuit.Device.
func (c *Capacitor) Name() string { return c.Inst }

// Setup implements circuit.Device. The capacitance is constant, so its C
// entries are registered with their values here and Eval stamps only q.
func (c *Capacitor) Setup(ctx *circuit.SetupCtx) error {
	ctx.ConstC(c.P, c.P, c.Farads)
	ctx.ConstC(c.P, c.N, -c.Farads)
	ctx.ConstC(c.N, c.P, -c.Farads)
	ctx.ConstC(c.N, c.N, c.Farads)
	return nil
}

// Eval implements circuit.Device.
func (c *Capacitor) Eval(ctx *circuit.EvalCtx) {
	q := c.Farads * (ctx.V(c.P) - ctx.V(c.N))
	ctx.AddQ(c.P, q)
	ctx.AddQ(c.N, -q)
}

// ConductivePairs implements circuit.ConductiveDevice.
func (r *Resistor) ConductivePairs() [][2]circuit.UnknownID {
	return [][2]circuit.UnknownID{{r.P, r.N}}
}

// Terminals lists the resistor's node connections (for netlist lint).
func (r *Resistor) Terminals() []circuit.UnknownID { return []circuit.UnknownID{r.P, r.N} }

// Terminals lists the capacitor's node connections (for netlist lint).
// Capacitors expose no conductive pairs: a node reachable only through
// capacitors has no DC path.
func (c *Capacitor) Terminals() []circuit.UnknownID { return []circuit.UnknownID{c.P, c.N} }
