// Command indepchar characterizes setup and hold times independently of
// each other (the classic per-axis numbers), comparing the direct-Newton
// strategy against the industry-practice binary search and reporting the
// simulation counts of both.
//
// Usage:
//
//	indepchar -cell tspc -tol 0.05
package main

import (
	"flag"
	"fmt"
	"os"

	"latchchar"
	"latchchar/internal/cli"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprint(os.Stderr, "indepchar: ")
		cli.RenderError(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("indepchar", flag.ContinueOnError)
	var (
		cellName = fs.String("cell", "tspc", "built-in cell: tspc, c2mos or tgate")
		deckPath = fs.String("netlist", "", "netlist deck path (overrides -cell)")
		pinnedPS = fs.Float64("pinned", 500, "pinned opposite skew (ps)")
		tolPS    = fs.Float64("tol", 0.05, "skew accuracy target (ps)")
	)
	// -fast is accepted so existing scripts keep working (DESIGN §10).
	fs.Bool("fast", false, "ignored (every run takes the exact Newton step); kept for compatibility")
	var obsFlags cli.ObsFlags
	obsFlags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	obsRun, obsClose, err := obsFlags.Build(os.Stderr)
	if err != nil {
		return err
	}
	defer obsClose()
	logger, err := obsFlags.LoggerWithCorr(os.Stderr)
	if err != nil {
		return err
	}
	cell, err := cli.LoadCell(*cellName, *deckPath)
	if err != nil {
		return err
	}
	opts := latchchar.IndependentOptions{
		Pinned: *pinnedPS * 1e-12,
		Tol:    *tolPS * 1e-12,
		Obs:    obsRun,
	}
	evalCfg := latchchar.EvalConfig{Obs: obsRun}
	// ^C cancels whichever search is in flight mid-transient.
	ctx, stop := cli.SignalContext()
	defer stop()
	logger.Info("independent characterization starting", "cell", cell.Name, "tol_ps", *tolPS)
	sNR, hNR, err := latchchar.IndependentTimesCtx(ctx, cell, evalCfg, opts)
	if err != nil {
		obsFlags.OnFailure(logger, os.Stderr, err)
		return err
	}
	sBis, hBis, err := latchchar.IndependentBaselineCtx(ctx, cell, evalCfg, opts)
	if err != nil {
		obsFlags.OnFailure(logger, os.Stderr, err)
		return err
	}
	logger.Info("independent characterization done",
		"cell", cell.Name,
		"newton_sims", sNR.PlainEvals+sNR.GradEvals+hNR.PlainEvals+hNR.GradEvals,
		"bisection_sims", sBis.PlainEvals+hBis.PlainEvals)
	fmt.Printf("cell %s (pinned opposite skew %s, tolerance %s)\n", cell.Name, cli.Ps(opts.Pinned), cli.Ps(opts.Tol))
	fmt.Printf("%-18s %14s %14s %10s\n", "method", "setup time", "hold time", "sims")
	fmt.Printf("%-18s %14s %14s %10d\n", "direct Newton",
		cli.Ps(sNR.Skew), cli.Ps(hNR.Skew),
		sNR.PlainEvals+sNR.GradEvals+hNR.PlainEvals+hNR.GradEvals)
	fmt.Printf("%-18s %14s %14s %10d\n", "binary search",
		cli.Ps(sBis.Skew), cli.Ps(hBis.Skew),
		sBis.PlainEvals+hBis.PlainEvals)
	nrCost := sNR.PlainEvals + sNR.GradEvals + hNR.PlainEvals + hNR.GradEvals
	bisCost := sBis.PlainEvals + hBis.PlainEvals
	fmt.Printf("speedup: %.1f×\n", float64(bisCost)/float64(nrCost))
	return nil
}
