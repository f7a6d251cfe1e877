package circuit

import (
	"testing"
)

// stub device for bookkeeping tests: a conductance between two unknowns.
type stubG struct {
	name  string
	a, b  UnknownID
	g     float64
	slots [4]Slot
}

func (s *stubG) Name() string { return s.name }
func (s *stubG) Setup(ctx *SetupCtx) error {
	s.slots[0] = ctx.G(s.a, s.a)
	s.slots[1] = ctx.G(s.a, s.b)
	s.slots[2] = ctx.G(s.b, s.a)
	s.slots[3] = ctx.G(s.b, s.b)
	return nil
}
func (s *stubG) Eval(ctx *EvalCtx) {
	i := s.g * (ctx.V(s.a) - ctx.V(s.b))
	ctx.AddF(s.a, i)
	ctx.AddF(s.b, -i)
	ctx.AddG(s.slots[0], s.g)
	ctx.AddG(s.slots[1], -s.g)
	ctx.AddG(s.slots[2], -s.g)
	ctx.AddG(s.slots[3], s.g)
}

func TestNodeCreationAndGroundAliases(t *testing.T) {
	c := New()
	a := c.Node("a")
	a2 := c.Node("a")
	if a != a2 {
		t.Error("repeated Node returned different ids")
	}
	b := c.Node("b")
	if a == b {
		t.Error("distinct nodes share an id")
	}
	for _, g := range []string{"0", "gnd", "GND"} {
		if c.Node(g) != Ground {
			t.Errorf("%q should be ground", g)
		}
	}
	if c.NumNodes() != 2 {
		t.Errorf("NumNodes = %d", c.NumNodes())
	}
	if c.NodeName(a) != "a" || c.NodeName(Ground) != "gnd" {
		t.Error("NodeName wrong")
	}
}

func TestLookupNode(t *testing.T) {
	c := New()
	a := c.Node("a")
	got, err := c.LookupNode("a")
	if err != nil || got != a {
		t.Errorf("LookupNode(a) = %v, %v", got, err)
	}
	if _, err := c.LookupNode("missing"); err == nil {
		t.Error("missing node should error")
	}
	if g, err := c.LookupNode("0"); err != nil || g != Ground {
		t.Error("ground lookup failed")
	}
}

func TestFinalizeLifecycle(t *testing.T) {
	c := New()
	if err := c.Finalize(); err == nil {
		t.Error("empty circuit should not finalize")
	}
	c = New()
	d := &stubG{name: "g1", a: c.Node("a"), b: Ground, g: 1e-3}
	c.AddDevice(d)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	if !c.Finalized() {
		t.Error("Finalized should be true")
	}
	if err := c.Finalize(); err == nil {
		t.Error("double Finalize should error")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddDevice after Finalize should panic")
			}
		}()
		c.AddDevice(d)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("new Node after Finalize should panic")
			}
		}()
		c.Node("new")
	}()
}

func TestEvalAssembleAndGmin(t *testing.T) {
	c := New()
	c.Gmin = 1e-9
	a := c.Node("a")
	b := c.Node("b")
	c.AddDevice(&stubG{name: "g1", a: a, b: b, g: 2e-3})
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	if c.N() != 2 {
		t.Fatalf("N = %d", c.N())
	}
	ev := c.NewEval()
	x := []float64{2, 1}
	ev.At(x, 0)
	// f[a] = g(va−vb) + gmin·va
	want := 2e-3*1 + 1e-9*2
	if ev.F[0] != want {
		t.Errorf("F[a] = %v, want %v", ev.F[0], want)
	}
	if g := ev.G.At(0, 0); g != 2e-3+1e-9 {
		t.Errorf("G(a,a) = %v", g)
	}
	if g := ev.G.At(0, 1); g != -2e-3 {
		t.Errorf("G(a,b) = %v", g)
	}
	// Re-evaluation must not accumulate.
	ev.At(x, 0)
	if ev.F[0] != want {
		t.Errorf("second At accumulated: %v", ev.F[0])
	}
}

func TestEvalGroundStampsDropped(t *testing.T) {
	c := New()
	a := c.Node("a")
	c.AddDevice(&stubG{name: "g1", a: a, b: Ground, g: 1e-3})
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	ev := c.NewEval()
	ev.At([]float64{3}, 0)
	if ev.G.NNZ() != 1 {
		t.Errorf("expected only the (a,a) entry, NNZ = %d", ev.G.NNZ())
	}
	if ev.F[0] != 3e-3+3*c.Gmin {
		t.Errorf("F[a] = %v", ev.F[0])
	}
}

func TestBranchAllocation(t *testing.T) {
	c := New()
	a := c.Node("a")
	dev := &branchStub{a: a}
	c.AddDevice(dev)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	if c.N() != 2 {
		t.Fatalf("N = %d, want node+branch", c.N())
	}
	if dev.br != UnknownID(1) {
		t.Errorf("branch id = %d", dev.br)
	}
	if c.NodeName(dev.br) != "i(vb)" {
		t.Errorf("branch name = %q", c.NodeName(dev.br))
	}
}

type branchStub struct {
	a  UnknownID
	br UnknownID
	s  [2]Slot
}

func (b *branchStub) Name() string { return "vb" }
func (b *branchStub) Setup(ctx *SetupCtx) error {
	b.br = ctx.Branch("vb")
	b.s[0] = ctx.G(b.a, b.br)
	b.s[1] = ctx.G(b.br, b.a)
	return nil
}
func (b *branchStub) Eval(ctx *EvalCtx) {
	ctx.AddF(b.a, ctx.V(b.br))
	ctx.AddG(b.s[0], 1)
	ctx.AddF(b.br, ctx.V(b.a))
	ctx.AddG(b.s[1], 1)
	ctx.AddSrc(b.br, -1.5)
}

func TestSrcVector(t *testing.T) {
	c := New()
	a := c.Node("a")
	c.AddDevice(&branchStub{a: a})
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	ev := c.NewEval()
	ev.At([]float64{0, 0}, 0)
	if ev.Src[1] != -1.5 {
		t.Errorf("Src[branch] = %v", ev.Src[1])
	}
	if ev.Src[0] != 0 {
		t.Errorf("Src[node] = %v", ev.Src[0])
	}
}

func TestNewEvalBeforeFinalizePanics(t *testing.T) {
	c := New()
	c.Node("a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.NewEval()
}

func TestEvalStateLengthChecked(t *testing.T) {
	c := New()
	c.AddDevice(&stubG{name: "g", a: c.Node("a"), b: Ground, g: 1})
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	ev := c.NewEval()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong state length")
		}
	}()
	ev.At([]float64{1, 2}, 0)
}

// capStub registers a constant capacitance c between a and b through
// ConstC and a state-dependent one, v(a) farads on (a, a), through C.
type capStub struct {
	a, b UnknownID
	c    float64
	vs   Slot
}

func (s *capStub) Name() string { return "cs" }
func (s *capStub) Setup(ctx *SetupCtx) error {
	ctx.ConstC(s.a, s.a, s.c)
	ctx.ConstC(s.a, s.b, -s.c)
	ctx.ConstC(s.b, s.a, -s.c)
	ctx.ConstC(s.b, s.b, s.c)
	s.vs = ctx.C(s.a, s.a)
	return nil
}
func (s *capStub) Eval(ctx *EvalCtx) { ctx.AddC(s.vs, ctx.V(s.a)) }

func TestConstCTemplate(t *testing.T) {
	c := New()
	a, b := c.Node("a"), c.Node("b")
	c.AddDevice(&capStub{a: a, b: b, c: 2})
	c.AddDevice(&capStub{a: a, b: Ground, c: 3}) // shares (a, a); ground entries dropped
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	ev := c.NewEval()
	for _, va := range []float64{5, 7} {
		// Re-evaluation restarts C from the constant template.
		ev.At([]float64{va, 0}, 0)
		if got, want := ev.C.At(0, 0), 2+3+2*va; got != want {
			t.Errorf("v(a)=%v: C(a,a) = %v, want %v", va, got, want)
		}
		if ev.C.At(0, 1) != -2 || ev.C.At(1, 0) != -2 || ev.C.At(1, 1) != 2 {
			t.Errorf("v(a)=%v: constant entries %v", va, ev.C.ToDense())
		}
	}
	if ev.C.NNZ() != 4 {
		t.Errorf("C NNZ = %d, want 4", ev.C.NNZ())
	}
}
