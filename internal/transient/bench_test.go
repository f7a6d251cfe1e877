package transient

import (
	"testing"

	"latchchar/internal/circuit"
	"latchchar/internal/device"
	"latchchar/internal/wave"
)

// benchCircuit builds an RC ladder of the given depth driven by a data
// pulse, exercising assembly, factorization and (optionally) sensitivities.
func benchCircuit(b *testing.B, stages int) (*circuit.Circuit, []float64) {
	b.Helper()
	ckt := circuit.New()
	dp, err := wave.NewDataPulse(5e-9, 0, 2.5, 0.1e-9, 0.1e-9, wave.RampSmooth)
	if err != nil {
		b.Fatal(err)
	}
	dp.SetSkews(500e-12, 400e-12)
	prev := ckt.Node("in")
	vs, err := device.NewVSource("vin", prev, circuit.Ground, dp, device.RoleData)
	if err != nil {
		b.Fatal(err)
	}
	ckt.AddDevice(vs)
	for i := 0; i < stages; i++ {
		next := ckt.Node("n" + string(rune('a'+i%26)) + string(rune('0'+i/26)))
		r, err := device.NewResistor("r", prev, next, 1e3)
		if err != nil {
			b.Fatal(err)
		}
		ckt.AddDevice(r)
		c, err := device.NewCapacitor("c", next, circuit.Ground, 0.1e-12)
		if err != nil {
			b.Fatal(err)
		}
		ckt.AddDevice(c)
		prev = next
	}
	if err := ckt.Finalize(); err != nil {
		b.Fatal(err)
	}
	return ckt, make([]float64, ckt.N())
}

func benchRun(b *testing.B, opts Options) {
	ckt, x0 := benchCircuit(b, 10)
	g, err := UniformGrid(0, 6e-9, 600)
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(ckt, opts)
	var facts int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Run(x0, g)
		if err != nil {
			b.Fatal(err)
		}
		facts = res.Stats.Factorizations
	}
	b.ReportMetric(float64(facts), "factorizations")
}

func BenchmarkTransientBE(b *testing.B)            { benchRun(b, Options{}) }
func BenchmarkTransientTRAP(b *testing.B)          { benchRun(b, Options{Method: TRAP}) }
func BenchmarkTransientBESensitivity(b *testing.B) { benchRun(b, Options{Skews: true}) }
