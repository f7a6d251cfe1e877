// Package circuit implements modified nodal analysis (MNA) assembly for the
// simulator. A Circuit owns the unknown numbering (node voltages followed by
// branch currents), the fixed sparsity patterns of the conductance Jacobian
// G = ∂f/∂x and the charge Jacobian C = ∂q/∂x, and evaluates the vectors and
// matrices of the circuit equation
//
//	d/dt q(x) + f(x) + src(t) = 0
//
// where src(t) collects all independent-source contributions, split per the
// paper into clock-like terms bc·uc(t) and the data term bd·ud(t, τs, τh).
//
// Devices register their matrix entries once (Setup) and then stamp values
// through integer slots on every evaluation, so no pattern work happens in
// the inner Newton loop. Constant capacitances go further: a device
// registers them with their values (SetupCtx.ConstC), Finalize sums them
// into the C template once, and every evaluation starts C from that copy.
package circuit

import (
	"fmt"

	"latchchar/internal/sparse"
)

// UnknownID identifies one MNA unknown: a node voltage or a branch current.
// Ground is the reference node and is not an unknown.
type UnknownID int

// Ground is the reference node; stamps against it are dropped.
const Ground UnknownID = -1

// Slot addresses one stored matrix entry for fast value stamping.
// The zero Slot is invalid; devices must use the Slot returned by SetupCtx.
type Slot int

// noSlot marks pattern entries involving ground.
const noSlot Slot = -1

// Device is a circuit element. Setup is called exactly once when the
// circuit is finalized; Eval is called for every residual/Jacobian
// evaluation and must only stamp values through the handles acquired in
// Setup. A constant C entry is given its value in Setup (ConstC) and is not
// stamped again in Eval.
type Device interface {
	// Name returns the instance name, used in diagnostics.
	Name() string
	// Setup registers matrix pattern entries, constant C values and any
	// extra branch unknowns.
	Setup(ctx *SetupCtx) error
	// Eval stamps q, f, src values, G matrix values and the state-dependent
	// C values for the state and time in ctx.
	Eval(ctx *EvalCtx)
}

// DataSource is implemented by devices whose source waveform depends on the
// setup/hold skews (τs, τh); they contribute the sensitivity right-hand
// sides bd·zs(t) and bd·zh(t) of paper eq. (7).
type DataSource interface {
	Device
	// AddSkewSens accumulates bd·zs(t) into zs and bd·zh(t) into zh.
	AddSkewSens(t float64, zs, zh []float64)
}

// Circuit is an MNA circuit under construction or finalized for evaluation.
// A Circuit (and evaluators derived from it) is not safe for concurrent
// use; build one circuit per goroutine via a factory function.
type Circuit struct {
	nodeIndex map[string]UnknownID
	nodeNames []string
	devices   []Device
	dataSrcs  []DataSource

	numBranches int
	branchNames []string

	// Gmin is the conductance from every node to ground, stamped
	// unconditionally so that floating dynamic nodes keep the DC system
	// nonsingular (SPICE-style). Set before Finalize; default 1e-12 S.
	Gmin float64

	finalized bool
	gEntries  []patEntry // provisional G entries in setup order
	cEntries  []patEntry
	cConst    []constEntry // ConstC registrations in setup order
	gSlotMap  []int        // provisional slot -> CSR value index
	cSlotMap  []int
	gPat      *sparse.CSR // pattern with zero values (template)
	cPat      *sparse.CSR // pattern holding the summed constant C values
}

type patEntry struct{ i, j UnknownID }

// constEntry is one constant C value registered through ConstC; slot is
// its provisional C slot.
type constEntry struct {
	slot Slot
	v    float64
}

// New returns an empty circuit.
func New() *Circuit {
	return &Circuit{
		nodeIndex: make(map[string]UnknownID),
		Gmin:      1e-12,
	}
}

// Node returns the unknown for the named node, creating it on first use.
// The names "0", "gnd" and "GND" denote ground.
func (c *Circuit) Node(name string) UnknownID {
	if name == "0" || name == "gnd" || name == "GND" {
		return Ground
	}
	if id, ok := c.nodeIndex[name]; ok {
		return id
	}
	if c.finalized {
		panic(fmt.Sprintf("circuit: new node %q after Finalize", name))
	}
	id := UnknownID(len(c.nodeNames))
	c.nodeIndex[name] = id
	c.nodeNames = append(c.nodeNames, name)
	return id
}

// LookupNode returns the unknown for a node that must already exist.
func (c *Circuit) LookupNode(name string) (UnknownID, error) {
	if name == "0" || name == "gnd" || name == "GND" {
		return Ground, nil
	}
	id, ok := c.nodeIndex[name]
	if !ok {
		return Ground, fmt.Errorf("circuit: unknown node %q", name)
	}
	return id, nil
}

// NodeName returns a human-readable name for an unknown.
func (c *Circuit) NodeName(id UnknownID) string {
	switch {
	case id == Ground:
		return "gnd"
	case int(id) < len(c.nodeNames):
		return c.nodeNames[id]
	default:
		bi := int(id) - len(c.nodeNames)
		if bi < len(c.branchNames) {
			return "i(" + c.branchNames[bi] + ")"
		}
		return fmt.Sprintf("unknown%d", int(id))
	}
}

// AddDevice appends a device to the circuit.
func (c *Circuit) AddDevice(d Device) {
	if c.finalized {
		panic("circuit: AddDevice after Finalize")
	}
	c.devices = append(c.devices, d)
}

// Devices returns the devices in insertion order.
func (c *Circuit) Devices() []Device { return c.devices }

// NumNodes returns the number of non-ground nodes.
func (c *Circuit) NumNodes() int { return len(c.nodeNames) }

// N returns the total unknown count (nodes + branches). Valid after
// Finalize.
func (c *Circuit) N() int { return len(c.nodeNames) + c.numBranches }

// Finalize runs device Setup, assigns branch unknowns and freezes the
// sparsity patterns. It must be called exactly once, after which Eval
// contexts can be created.
func (c *Circuit) Finalize() error {
	if c.finalized {
		return fmt.Errorf("circuit: already finalized")
	}
	if len(c.devices) == 0 {
		return fmt.Errorf("circuit: no devices")
	}
	setup := &SetupCtx{c: c}
	for _, d := range c.devices {
		if err := d.Setup(setup); err != nil {
			return fmt.Errorf("circuit: setup of %s: %w", d.Name(), err)
		}
	}
	c.finalized = true

	n := c.N()
	// Gmin diagonal entries for every node row keep G nonsingular at DC.
	for i := 0; i < len(c.nodeNames); i++ {
		c.gEntries = append(c.gEntries, patEntry{UnknownID(i), UnknownID(i)})
	}
	build := func(entries []patEntry) (*sparse.CSR, []int) {
		b := sparse.NewBuilder(n)
		for _, e := range entries {
			if e.i == Ground || e.j == Ground {
				continue
			}
			b.Add(int(e.i), int(e.j), 0)
		}
		pat := b.Build()
		slots := make([]int, len(entries))
		for k, e := range entries {
			if e.i == Ground || e.j == Ground {
				slots[k] = -1
				continue
			}
			idx, ok := pat.Index(int(e.i), int(e.j))
			if !ok {
				panic("circuit: pattern entry vanished")
			}
			slots[k] = idx
		}
		return pat, slots
	}
	c.gPat, c.gSlotMap = build(c.gEntries)
	c.cPat, c.cSlotMap = build(c.cEntries)
	// The constant C values, summed once in registration order.
	for _, e := range c.cConst {
		c.cPat.Val[c.cSlotMap[e.slot]] += e.v
	}
	return nil
}

// Finalized reports whether Finalize has run.
func (c *Circuit) Finalized() bool { return c.finalized }

// SetupCtx is passed to Device.Setup for registering unknowns and pattern
// entries.
type SetupCtx struct {
	c *Circuit
}

// Branch allocates a new branch-current unknown (e.g. for a voltage
// source) and returns its id.
func (s *SetupCtx) Branch(name string) UnknownID {
	id := UnknownID(len(s.c.nodeNames) + s.c.numBranches)
	s.c.numBranches++
	s.c.branchNames = append(s.c.branchNames, name)
	return id
}

// G registers a conductance-Jacobian pattern entry (i, j) and returns its
// stamping slot. Entries touching ground return a slot whose stamps are
// dropped.
func (s *SetupCtx) G(i, j UnknownID) Slot {
	if i == Ground || j == Ground {
		return noSlot
	}
	s.c.gEntries = append(s.c.gEntries, patEntry{i, j})
	return Slot(len(s.c.gEntries) - 1)
}

// C registers a charge-Jacobian pattern entry (i, j) for a state-dependent
// value and returns its slot; Eval stamps the value through AddC on every
// evaluation, on top of the constant values (see ConstC).
func (s *SetupCtx) C(i, j UnknownID) Slot {
	if i == Ground || j == Ground {
		return noSlot
	}
	s.c.cEntries = append(s.c.cEntries, patEntry{i, j})
	return Slot(len(s.c.cEntries) - 1)
}

// ConstC registers a charge-Jacobian pattern entry (i, j) holding the
// constant value v. Finalize adds the registered values into the C
// template in registration order, and every Eval.At starts C from that
// template, so the device stamps nothing for the entry in Eval. Entries
// touching ground are dropped.
func (s *SetupCtx) ConstC(i, j UnknownID, v float64) {
	if slot := s.C(i, j); slot != noSlot {
		s.c.cConst = append(s.c.cConst, constEntry{slot, v})
	}
}

// RegisterDataSource marks d as a skew-dependent source whose sensitivity
// right-hand sides are collected by AddSkewSens.
func (s *SetupCtx) RegisterDataSource(d DataSource) {
	s.c.dataSrcs = append(s.c.dataSrcs, d)
}

// Eval owns the storage for one assembly of the circuit equations. Create
// one per solver (DC or transient) and reuse it across evaluations.
type Eval struct {
	c *Circuit
	// Q, F, Src are the assembled vectors: charges, static currents and
	// independent-source contributions at the last At call.
	Q, F, Src []float64
	// C and G are the assembled Jacobians ∂q/∂x and ∂f/∂x.
	C, G *sparse.CSR

	ctx EvalCtx
}

// NewEval allocates evaluation storage. The circuit must be finalized.
func (c *Circuit) NewEval() *Eval {
	if !c.finalized {
		panic("circuit: NewEval before Finalize")
	}
	n := c.N()
	ev := &Eval{
		c:   c,
		Q:   make([]float64, n),
		F:   make([]float64, n),
		Src: make([]float64, n),
		C:   c.cPat.Clone(),
		G:   c.gPat.Clone(),
	}
	ev.ctx.ev = ev
	return ev
}

// At assembles q, f, src, C and G for state x at time t. C starts from the
// constant values summed at Finalize; the devices add the state-dependent
// ones.
func (ev *Eval) At(x []float64, t float64) {
	if len(x) != ev.c.N() {
		panic("circuit: Eval.At state length mismatch")
	}
	for i := range ev.Q {
		ev.Q[i] = 0
		ev.F[i] = 0
		ev.Src[i] = 0
	}
	copy(ev.C.Val, ev.c.cPat.Val)
	ev.G.ZeroVals()
	ev.ctx.X = x
	ev.ctx.T = t
	for _, d := range ev.c.devices {
		d.Eval(&ev.ctx)
	}
	// Gmin stamps: conductance to ground on every node.
	gmin := ev.c.Gmin
	numNodes := len(ev.c.nodeNames)
	base := len(ev.c.gEntries) - numNodes
	for i := 0; i < numNodes; i++ {
		ev.F[i] += gmin * x[i]
		ev.G.Val[ev.c.gSlotMap[base+i]] += gmin
	}
}

// AddSkewSens accumulates the data-source sensitivity right-hand sides
// bd·zs(t) into zs and bd·zh(t) into zh (paper eq. (7)).
func (ev *Eval) AddSkewSens(t float64, zs, zh []float64) {
	for _, d := range ev.c.dataSrcs {
		d.AddSkewSens(t, zs, zh)
	}
}

// Circuit returns the evaluated circuit.
func (ev *Eval) Circuit() *Circuit { return ev.c }

// EvalCtx is the stamping context handed to Device.Eval.
type EvalCtx struct {
	ev *Eval
	// X is the state vector being evaluated; T the time.
	X []float64
	T float64
}

// V returns the value of unknown id in the current state (0 for ground).
func (e *EvalCtx) V(id UnknownID) float64 {
	if id == Ground {
		return 0
	}
	return e.X[id]
}

// AddF accumulates into the static-current vector f.
func (e *EvalCtx) AddF(id UnknownID, v float64) {
	if id != Ground {
		e.ev.F[id] += v
	}
}

// AddQ accumulates into the charge vector q.
func (e *EvalCtx) AddQ(id UnknownID, v float64) {
	if id != Ground {
		e.ev.Q[id] += v
	}
}

// AddSrc accumulates into the independent-source vector src(t).
func (e *EvalCtx) AddSrc(id UnknownID, v float64) {
	if id != Ground {
		e.ev.Src[id] += v
	}
}

// AddG accumulates into the conductance Jacobian through a Setup slot.
func (e *EvalCtx) AddG(s Slot, v float64) {
	if s == noSlot {
		return
	}
	if idx := e.ev.c.gSlotMap[s]; idx >= 0 {
		e.ev.G.Val[idx] += v
	}
}

// AddC accumulates into the charge Jacobian through a Setup slot.
func (e *EvalCtx) AddC(s Slot, v float64) {
	if s == noSlot {
		return
	}
	if idx := e.ev.c.cSlotMap[s]; idx >= 0 {
		e.ev.C.Val[idx] += v
	}
}
