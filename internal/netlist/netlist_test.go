package netlist

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"latchchar/internal/circuit"
	"latchchar/internal/registers"
	"latchchar/internal/stf"
)

func TestParseValue(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"1", 1},
		{"2.5", 2.5},
		{"-3", -3},
		{"10p", 10e-12},
		{"0.1n", 0.1e-9},
		{"4u", 4e-6},
		{"6m", 6e-3},
		{"1k", 1e3},
		{"2meg", 2e6},
		{"3g", 3e9},
		{"1t", 1e12},
		{"5f", 5e-15},
		{"1e-9", 1e-9},
		{"2.5V", 2.5},
		{"10pF", 10e-12},
		{"1K", 1e3},
		{"100ohm", 100},
	}
	for _, c := range cases {
		got, err := ParseValue(c.in)
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		if math.Abs(got-c.want) > 1e-12*math.Abs(c.want)+1e-300 {
			t.Errorf("%q = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "x", "1q", "=3"} {
		if _, err := ParseValue(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

const tspcDeck = `
* TSPC positive-edge register, equivalent to registers.TSPC defaults
.model nch nmos VT0=0.43 KP=115u LAMBDA=0.06 COX=6m CJ=0.6n
.model pch pmos VT0=0.40 KP=30u LAMBDA=0.10 COX=6m CJ=0.6n

Vdd  vdd 0 DC 2.5
Vclk clk 0 CLOCK(0 2.5 10n 1n 0.1n 0.1n)
Vd   d   0 DATA(11.05n 2.5 0 0.1n 0.1n)

* stage 1
MP1 n1 d   vdd vdd pch W=1.4u L=0.25u
MP2 x  clk n1  vdd pch W=1.4u L=0.25u
MN1 x  d   0   0   nch W=0.6u L=0.25u
* stage 2
MP3 y  x   vdd vdd pch W=1.4u L=0.25u
MN2 y  clk n2  0   nch W=0.6u L=0.25u
MN3 n2 x   0   0   nch W=0.6u L=0.25u
* stage 3
MP4 q  y   vdd vdd pch W=1.4u L=0.25u
MN4 q  clk n3  0   nch W=0.6u L=0.25u
MN5 n3 y   0   0   nch W=0.6u L=0.25u

Cx x 0 12f
Cy y 0 12f
Cq q 0 25f

.out q
.vdd 2.5
.crossfrac 0.5
.rising 1
.end
`

func TestParseTSPCDeck(t *testing.T) {
	d, err := ParseString(tspcDeck)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.mosfets) != 9 || len(d.capacitors) != 3 || len(d.sources) != 3 {
		t.Errorf("counts: %d mosfets, %d caps, %d sources", len(d.mosfets), len(d.capacitors), len(d.sources))
	}
	if d.out != "q" || d.vdd != 2.5 || d.crossFrac != 0.5 || !d.rising {
		t.Errorf("directives: out=%q vdd=%v frac=%v rising=%v", d.out, d.vdd, d.crossFrac, d.rising)
	}
}

func TestBuildTSPCDeck(t *testing.T) {
	d, err := ParseString(tspcDeck)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !inst.Circuit.Finalized() {
		t.Error("circuit not finalized")
	}
	if inst.Data == nil || inst.Out < 0 {
		t.Error("incomplete instance")
	}
	if math.Abs(inst.Edge50-11.05e-9) > 1e-18 {
		t.Errorf("Edge50 = %v", inst.Edge50)
	}
	// Independent instances.
	inst2, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	if inst.Circuit == inst2.Circuit || inst.Data == inst2.Data {
		t.Error("Build instances share state")
	}
}

// TestDeckMatchesBuiltinCell is the round-trip check: the parsed deck must
// calibrate to the same characteristic delay as the programmatic TSPC cell.
func TestDeckMatchesBuiltinCell(t *testing.T) {
	d, err := ParseString(tspcDeck)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	evDeck, err := stf.NewEvaluator(inst, stf.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cell, err := registers.ByName("tspc")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cell.Build()
	if err != nil {
		t.Fatal(err)
	}
	evRef, err := stf.NewEvaluator(ref, stf.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dDeck := evDeck.Calibration().CharDelay
	dRef := evRef.Calibration().CharDelay
	if math.Abs(dDeck-dRef) > 1e-12 {
		t.Errorf("deck delay %v ps, builtin %v ps", dDeck*1e12, dRef*1e12)
	}
}

func TestContinuationAndComments(t *testing.T) {
	d, err := ParseString(`
* comment
.model nch nmos VT0=0.43 KP=115u
Vc clk 0 CLOCK(0 2.5 10n 1n
+ 0.1n 0.1n) ; trailing comment
Vd d 0 DATA(11.05n 2.5 0 0.1n 0.1n)
M1 q d 0 0 nch W=1u L=0.25u
.out q
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.sources) != 2 {
		t.Errorf("sources: %d", len(d.sources))
	}
	if math.Abs(d.sources[0].clock.rise-0.1e-9) > 1e-21 {
		t.Errorf("continuation lost: %+v", d.sources[0].clock)
	}
}

func TestBareDCSource(t *testing.T) {
	d, err := ParseString(`
.model nch nmos VT0=0.43 KP=115u
Vs vdd 0 2.5
Vc clk 0 CLOCK(0 2.5 10n 1n 0.1n 0.1n)
Vd d 0 DATA(11.05n 2.5 0 0.1n 0.1n)
M1 q d 0 0 nch W=1u L=0.25u
.out q
`)
	if err != nil {
		t.Fatal(err)
	}
	if d.sources[0].kind != srcDC || d.sources[0].dc != 2.5 {
		t.Errorf("bare DC: %+v", d.sources[0])
	}
}

func TestPulseMapsToClock(t *testing.T) {
	d, err := ParseString(`
.model nch nmos VT0=0.43 KP=115u
Vc clk 0 PULSE(0 2.5 1n 0.1n 0.1n 4.9n 10n)
Vd d 0 DATA(11.05n 2.5 0 0.1n 0.1n)
M1 q d 0 0 nch W=1u L=0.25u
.out q
`)
	if err != nil {
		t.Fatal(err)
	}
	ck := d.sources[0].clock
	if ck.period != 10e-9 || math.Abs(ck.width-5e-9) > 1e-18 {
		t.Errorf("pulse mapping: %+v", ck)
	}
}

func TestPWLSource(t *testing.T) {
	d, err := ParseString(`
.model nch nmos VT0=0.43 KP=115u
Vc clk 0 CLOCK(0 2.5 10n 1n 0.1n 0.1n)
Vp ramp 0 PWL(0 0 1n 2.5)
Vd d 0 DATA(11.05n 2.5 0 0.1n 0.1n)
M1 q d 0 0 nch W=1u L=0.25u
.out q
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Build(); err != nil {
		t.Fatal(err)
	}
}

func TestValidationErrors(t *testing.T) {
	base := `
.model nch nmos VT0=0.43 KP=115u
Vc clk 0 CLOCK(0 2.5 10n 1n 0.1n 0.1n)
Vd d 0 DATA(11.05n 2.5 0 0.1n 0.1n)
M1 q d 0 0 nch W=1u L=0.25u
.out q
`
	cases := map[string]string{
		"no data":        strings.Replace(base, "DATA(11.05n 2.5 0 0.1n 0.1n)", "DC 0", 1),
		"no clock":       strings.Replace(base, "CLOCK(0 2.5 10n 1n 0.1n 0.1n)", "DC 0", 1),
		"no out":         strings.Replace(base, ".out q", "", 1),
		"missing model":  strings.Replace(base, "nch W=1u", "nope W=1u", 1),
		"two data":       base + "\nVd2 d2 0 DATA(11.05n 2.5 0 0.1n 0.1n)\n",
		"unknown elem":   base + "\nQ1 a b c\n",
		"unknown direct": base + "\n.wibble 3\n",
		"bad crossfrac":  base + "\n.crossfrac 1.5\n",
		"bad rising":     base + "\n.rising yes\n",
		"bad mos param":  strings.Replace(base, "W=1u", "Z=1u", 1),
		"zero W":         strings.Replace(base, "W=1u", "W=0", 1),
		"bad model type": strings.Replace(base, "nmos VT0", "jfet VT0", 1),
	}
	for name, deck := range cases {
		if _, err := ParseString(deck); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	// .out on a node that exists but is ground.
	d, err := ParseString(`
.model nch nmos VT0=0.43 KP=115u
Vc clk 0 CLOCK(0 2.5 10n 1n 0.1n 0.1n)
Vd d 0 DATA(11.05n 2.5 0 0.1n 0.1n)
M1 q d 0 0 nch W=1u L=0.25u
.out 0
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Build(); err == nil {
		t.Error("ground output accepted")
	}
	// .out references a node that never appears.
	d, err = ParseString(`
.model nch nmos VT0=0.43 KP=115u
Vc clk 0 CLOCK(0 2.5 10n 1n 0.1n 0.1n)
Vd d 0 DATA(11.05n 2.5 0 0.1n 0.1n)
M1 q d 0 0 nch W=1u L=0.25u
.out nowhere
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Build(); err == nil {
		t.Error("unknown output node accepted")
	}
}

func TestDeckCell(t *testing.T) {
	d, err := ParseString(tspcDeck)
	if err != nil {
		t.Fatal(err)
	}
	cell := d.Cell("my-tspc")
	if cell.Name != "my-tspc" {
		t.Errorf("name %q", cell.Name)
	}
	if _, err := cell.Build(); err != nil {
		t.Fatal(err)
	}
}

func TestContinuationWithoutPrior(t *testing.T) {
	if _, err := ParseString("+ 1 2 3\n"); err == nil {
		t.Error("leading continuation accepted")
	}
}

func TestMalformedNumbers(t *testing.T) {
	if _, err := ParseString(`
.model nch nmos VT0=0.43 KP=115u
Vc clk 0 CLOCK(0 x 10n 1n 0.1n 0.1n)
Vd d 0 DATA(11.05n 2.5 0 0.1n 0.1n)
M1 q d 0 0 nch W=1u L=0.25u
.out q
`); err == nil {
		t.Error("bad clock arg accepted")
	}
}

func TestParseFileWithInclude(t *testing.T) {
	dir := t.TempDir()
	models := `
.model nch nmos VT0=0.43 KP=115u
.model pch pmos VT0=0.40 KP=30u
`
	if err := os.WriteFile(filepath.Join(dir, "models.inc"), []byte(models), 0o644); err != nil {
		t.Fatal(err)
	}
	deck := `
* top-level deck
.include models.inc
Vc clk 0 CLOCK(0 2.5 10n 1n 0.1n 0.1n)
Vd d 0 DATA(11.05n 2.5 0 0.1n 0.1n)
M1 q d 0 0 nch W=1u L=0.25u
.out q
`
	path := filepath.Join(dir, "top.cir")
	if err := os.WriteFile(path, []byte(deck), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.models) != 2 {
		t.Errorf("models: %d", len(d.models))
	}
	if _, err := d.Build(); err != nil {
		t.Fatal(err)
	}
}

func TestIncludeMissingFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "top.cir")
	if err := os.WriteFile(path, []byte(".include nothere.inc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseFile(path); err == nil {
		t.Error("missing include accepted")
	}
}

func TestIncludeRecursionLimited(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "self.inc")
	if err := os.WriteFile(path, []byte(".include self.inc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseFile(path); err == nil {
		t.Error("self-including deck accepted")
	}
}

func TestIncludeBadArgs(t *testing.T) {
	if _, err := ParseString(".include a b\n"); err == nil {
		t.Error(".include with two paths accepted")
	}
}

func TestParseFileMissing(t *testing.T) {
	if _, err := ParseFile("/nonexistent/deck.cir"); err == nil {
		t.Error("missing file accepted")
	}
}

// FuzzParse exercises the parser with arbitrary inputs; it must never
// panic, only return errors. A deck that builds is also assembled, and its
// charge Jacobian checked (checkConstantC). The seeds cover every element
// and directive form. Run with `go test -fuzz=FuzzParse ./internal/netlist`
// for real fuzzing; the seeds execute as regular tests.
func FuzzParse(f *testing.F) {
	f.Add(tspcDeck)
	f.Add("R1 a b 1k\n")
	f.Add("+ dangling continuation\n")
	f.Add(".model m nmos VT0=0.4 KP=1u\nVc c 0 CLOCK(0 1 1n 0.1n 0.01n 0.01n)\n")
	f.Add("Vd d 0 DATA(1n 0 1 0.1n 0.1n)\n.out q\n")
	f.Add("M1 a b c d mod W=1u L=1u\n")
	f.Add("* comment only\n; semicolon\n")
	f.Add(".include /etc/hostname\n")
	f.Add("V1 a 0 PWL(0 0 1 1)\nV2 b 0 PULSE(0 1 0 1 1 1 10)\n")
	f.Add("C1 x 0 1f\n.vdd 3\n.crossfrac 0.9\n.rising 0\n.end\n")
	f.Fuzz(func(t *testing.T, input string) {
		d, err := ParseString(input)
		if err != nil || d == nil {
			return
		}
		// A successfully parsed deck must also survive Build or fail with
		// an error, never panic.
		inst, err := d.Build()
		if err == nil {
			checkConstantC(t, inst.Circuit)
		}
	})
}

// checkConstantC assembles a built circuit at two different states and
// requires its charge Jacobian C to be symmetric and equal at both, bit for
// bit. Every capacitance a deck can declare is constant — C elements and
// the MOSFET's junction and gate caps; a .model card cannot select the
// NLGate gate-capacitance model — so C is the template summed at Finalize.
func checkConstantC(t *testing.T, c *circuit.Circuit) {
	t.Helper()
	ev := c.NewEval()
	x := make([]float64, c.N())
	for i := range x {
		x[i] = float64(i%5) - 1
	}
	ev.At(x, 0)
	first := append([]float64(nil), ev.C.Val...)
	for i := range x {
		x[i] = 2.5 - 0.7*float64(i%3)
	}
	ev.At(x, 1e-9)
	m := ev.C
	for i := 0; i < m.N; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.Col[k]
			if math.Float64bits(m.Val[k]) != math.Float64bits(first[k]) {
				t.Fatalf("C(%d,%d) moved between states: %v then %v", i, j, first[k], m.Val[k])
			}
			if math.Float64bits(m.Val[k]) != math.Float64bits(m.At(j, i)) {
				t.Fatalf("C not symmetric: C(%d,%d) = %v, C(%d,%d) = %v", i, j, m.Val[k], j, i, m.At(j, i))
			}
		}
	}
}
