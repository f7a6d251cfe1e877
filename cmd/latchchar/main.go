// Command latchchar characterizes interdependent setup/hold times of a
// register by Euler-Newton curve tracing, writing the constant clock-to-Q
// contour as CSV or JSON.
//
// Usage:
//
//	latchchar -cell tspc -points 40 -o contour.csv
//	latchchar -netlist mylatch.cir -both -format json
//	latchchar -cell tspc -progress -trace run.jsonl -chrometrace run.json -v
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"latchchar"
	"latchchar/internal/cli"
	"latchchar/internal/liberty"
	"latchchar/internal/stf"
	"latchchar/internal/transient"
	"latchchar/internal/vet"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprint(os.Stderr, "latchchar: ")
		cli.RenderError(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("latchchar", flag.ContinueOnError)
	var (
		cellName = fs.String("cell", "tspc", "built-in cell: tspc, c2mos or tgate")
		deckPath = fs.String("netlist", "", "netlist deck path (overrides -cell)")
		points   = fs.Int("points", 40, "contour points per trace direction")
		stepPS   = fs.Float64("step", 5, "Euler step length α in picoseconds")
		both     = fs.Bool("both", true, "trace both directions from the seed")
		resample = fs.Int("resample", 0, "resample the contour to exactly N arc-length-uniform points (0 = off)")
		energy   = fs.Bool("energy", false, "add a per-point supply-energy column (csv format only)")
		method   = fs.String("method", "be", "integration method: be or trap")
		block    = fs.Int("block", 0, "predictor lookahead width: correct N predicted points per cycle as one lockstep block-transient (0 or 1 = scalar)")
		degrade  = fs.Float64("degrade", 0.10, "clock-to-Q degradation defining setup/hold")
		maxSkew  = fs.Float64("maxskew", 1000, "skew domain bound in picoseconds")
		format   = fs.String("format", "csv", "output format: csv, json or lib (Liberty fragment)")
		outPath  = fs.String("o", "-", "output path (- for stdout)")
		doVet    = fs.Bool("vet", true, "run charvet pre-flight checks and abort on error findings")
		disable  = fs.String("disable", "", "comma-separated vet check IDs to skip")
		mcN      = fs.Int("mc", 0, "run a variance-aware Monte-Carlo characterization over N process samples (built-in cells only; 0 = off)")
		sampler  = fs.String("sampler", "iid", "Monte-Carlo sampling scheme: iid, lhs or sobol")
		seed     = fs.Int64("seed", 0, "Monte-Carlo draw seed (deterministic sample set)")
		sigma    = fs.Float64("sigma", 3, "sigma band half-width in sample standard deviations")
		probes   = fs.Int("probes", 0, "Monte-Carlo probe points per contour (0 = default)")
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
	evalCfg := stf.Config{
		Degrade:      *degrade,
		MaxSetupSkew: *maxSkew * 1e-12,
	}
	if *doVet {
		// Static pre-flight over the netlist and query parameters before
		// burning transient simulations on a broken setup.
		spec := vet.Spec{
			Eval:      evalCfg,
			Step:      *stepPS * 1e-12,
			MaxPoints: *points,
		}
		if err := cli.Gate(os.Stderr, cell, spec, vet.Options{Disable: cli.SplitChecks(*disable)}); err != nil {
			return err
		}
	}
	evalCfg.Obs = obsRun
	opts := latchchar.Options{
		Points:         *points,
		Step:           *stepPS * 1e-12,
		BothDirections: *both,
		Resample:       *resample,
		Block:          *block,
		Obs:            obsRun,
		Eval:           evalCfg,
	}
	switch *method {
	case "be":
		opts.Eval.Method = transient.BE
	case "trap":
		opts.Eval.Method = transient.TRAP
	default:
		return fmt.Errorf("unknown method %q", *method)
	}
	if *mcN > 0 {
		if *deckPath != "" {
			return fmt.Errorf("-mc needs a built-in cell; inline netlists carry no process parameters to perturb")
		}
		mcOpts := latchchar.MCOptions{
			Samples:      *mcN,
			Seed:         *seed,
			Sampler:      latchchar.Sampler(*sampler),
			SigmaLevel:   *sigma,
			Probes:       *probes,
			Characterize: opts,
		}
		return runMC(cell, mcOpts, *format, *outPath, logger)
	}
	ev, err := latchchar.NewEvaluator(cell, opts.Eval)
	if err != nil {
		return err
	}
	// ^C cancels the trace mid-transient; the partial contour is discarded
	// and the structured cancellation error rendered.
	ctx, stop := cli.SignalContext()
	defer stop()
	logger.Info("characterization starting", "cell", cell.Name, "points", *points, "step_ps", *stepPS)
	res, err := latchchar.CharacterizeWithEvaluatorCtx(ctx, ev, opts)
	if err != nil {
		obsFlags.OnFailure(logger, os.Stderr, err)
		return err
	}
	logger.Info("characterization done",
		"cell", cell.Name, "contour_points", len(res.Contour.Points),
		"sims", res.TotalSims(), "dur_ms", res.Elapsed.Milliseconds())

	cal := res.Calibration
	fmt.Fprintf(os.Stderr, "cell %s: characteristic clock-to-Q %s (tc = %.4f ns), tf = %.4f ns, r = %.3f V\n",
		cell.Name, cli.Ps(cal.CharDelay), cal.TC*1e9, cal.Tf*1e9, cal.R)
	fmt.Fprintf(os.Stderr, "traced %d contour points with %d simulations (%d plain + %d gradient) in %v\n",
		len(res.Contour.Points), res.TotalSims(), res.PlainSims, res.GradSims, res.Elapsed.Round(1e6))

	w, closeFn, err := cli.OpenOutput(*outPath)
	if err != nil {
		return err
	}
	defer closeFn()
	switch *format {
	case "csv":
		if *energy {
			energies := make([]float64, len(res.Contour.Points))
			for i, p := range res.Contour.Points {
				energies[i], err = ev.SupplyEnergy(p.TauS, p.TauH)
				if err != nil {
					return err
				}
			}
			return cli.WriteContourEnergyCSV(w, res.Contour.Points, energies)
		}
		return cli.WriteContourCSV(w, res.Contour.Points)
	case "json":
		return cli.WriteContourJSON(w, res.Contour.Points)
	case "lib":
		return liberty.Export(w, cell.Name, res.Contour, res.Calibration, liberty.Options{
			Stamp: time.Now(),
		})
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
}

// runMC runs the variance-aware Monte-Carlo flow and writes the restrictive
// sigma corner — the inner band edge — in the selected format. The permissive
// edge and the per-probe statistics ride along on stderr.
func runMC(cell *latchchar.Cell, mcOpts latchchar.MCOptions, format, outPath string, logger *slog.Logger) error {
	mk, err := latchchar.CellMakerByName(cell.Name, cell.Timing)
	if err != nil {
		return err
	}
	ctx, stop := cli.SignalContext()
	defer stop()
	logger.Info("monte-carlo characterization starting", "cell", cell.Name,
		"samples", mcOpts.Samples, "sampler", string(mcOpts.Sampler))
	mc, err := latchchar.MonteCarloContoursCtx(ctx, mk, cell.Process, mcOpts)
	if err != nil {
		return err
	}
	logger.Info("monte-carlo characterization done",
		"cell", cell.Name, "samples", len(mc.Samples), "warm", mc.WarmSamples,
		"sims", mc.TotalSims, "sims_saved", mc.SimsSaved, "dur_ms", mc.Elapsed.Milliseconds())
	fmt.Fprintf(os.Stderr, "cell %s: %d samples (%d warm, %d cold fallbacks), %d simulations total (%d saved vs naive)\n",
		cell.Name, len(mc.Samples), mc.WarmSamples, mc.ColdFallbacks, mc.TotalSims, mc.SimsSaved)
	fmt.Fprintf(os.Stderr, "%.0f-sigma band over %d probes from %d sample contours\n",
		mc.Sigma.Level, len(mc.Sigma.Probes), mc.Sigma.Samples)

	w, closeFn, err := cli.OpenOutput(outPath)
	if err != nil {
		return err
	}
	defer closeFn()
	switch format {
	case "csv":
		return cli.WriteContourCSV(w, mc.Sigma.Inner.Points)
	case "json":
		return cli.WriteContourJSON(w, mc.Sigma.Inner.Points)
	case "lib":
		return latchchar.ExportLibertySigma(w, cell.Name, mc, liberty.Options{Stamp: time.Now()})
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}
