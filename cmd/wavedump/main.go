// Command wavedump simulates a register at one (setup, hold) skew pair and
// writes every node-voltage waveform as CSV. It runs the transient behind
// h(τs, τh) — the characterization's start state, fixed τ-independent grid
// and integrator — continued to the chosen end time, and prints each value
// in shortest round-trip form. It is the debugging companion to the
// characterization tools: inspect exactly what the latch did around the
// active clock edge.
//
// Usage:
//
//	wavedump -cell c2mos -setup 600 -hold 180 -o waves.csv
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"

	"latchchar/internal/circuit"
	"latchchar/internal/cli"
	"latchchar/internal/stf"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wavedump:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("wavedump", flag.ContinueOnError)
	var (
		cellName = fs.String("cell", "tspc", "built-in cell: tspc, c2mos or tgate")
		deckPath = fs.String("netlist", "", "netlist deck path (overrides -cell)")
		setupPS  = fs.Float64("setup", 400, "setup skew (ps)")
		holdPS   = fs.Float64("hold", 300, "hold skew (ps)")
		postNS   = fs.Float64("post", 3, "how far past the active edge to simulate (ns)")
		outPath  = fs.String("o", "-", "output path (- for stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cell, err := cli.LoadCell(*cellName, *deckPath)
	if err != nil {
		return err
	}
	inst, err := cell.Build()
	if err != nil {
		return err
	}
	ev, err := stf.NewEvaluator(inst, stf.Config{})
	if err != nil {
		return err
	}

	numNodes := inst.Circuit.NumNodes()
	probes := make([]circuit.UnknownID, numNodes)
	names := make([]string, numNodes)
	for i := 0; i < numNodes; i++ {
		probes[i] = circuit.UnknownID(i)
		names[i] = inst.Circuit.NodeName(circuit.UnknownID(i))
	}
	tEnd := inst.Edge50 + *postNS*1e-9
	// ^C stops the integration between time steps; the partial waveform is
	// discarded along with the error.
	ctx, stop := cli.SignalContext()
	defer stop()
	ev.SetContext(ctx)
	res, err := ev.Waveforms(*setupPS*1e-12, *holdPS*1e-12, tEnd, probes...)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "cell %s at (τs, τh) = (%.0f, %.0f) ps: %d steps, %d Newton iterations\n",
		cell.Name, *setupPS, *holdPS, res.Stats.Steps, res.Stats.NewtonIters)

	w, closeFn, err := cli.OpenOutput(*outPath)
	if err != nil {
		return err
	}
	defer closeFn()
	cw := csv.NewWriter(w)
	header := append([]string{"t_ns"}, names...)
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, 1+numNodes)
	for k, tt := range res.Times {
		row[0] = strconv.FormatFloat(tt*1e9, 'f', 6, 64)
		for i := 0; i < numNodes; i++ {
			row[1+i] = strconv.FormatFloat(res.Probes[i][k], 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
