// Command surfgen generates the brute-force output surface of a register
// over an n×n grid of setup/hold skews and extracts the constant clock-to-Q
// contour by marching-squares interpolation — the prior-practice baseline
// the Euler-Newton tracer is compared against.
//
// Usage:
//
//	surfgen -cell tspc -n 40 -surface surface.csv -contour contour.csv
//	surfgen -cell tspc -n 20 -progress -trace sweep.jsonl -surface /dev/null
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"latchchar"
	"latchchar/internal/cli"
	"latchchar/internal/vet"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprint(os.Stderr, "surfgen: ")
		cli.RenderError(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("surfgen", flag.ContinueOnError)
	var (
		cellName  = fs.String("cell", "tspc", "built-in cell: tspc, c2mos or tgate")
		deckPath  = fs.String("netlist", "", "netlist deck path (overrides -cell)")
		n         = fs.Int("n", 40, "grid resolution per axis (n² simulations)")
		sMin      = fs.Float64("smin", 10, "minimum setup skew (ps)")
		sMax      = fs.Float64("smax", 800, "maximum setup skew (ps)")
		hMin      = fs.Float64("hmin", 10, "minimum hold skew (ps)")
		hMax      = fs.Float64("hmax", 800, "maximum hold skew (ps)")
		workers   = fs.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
		delayMode = fs.Bool("delay", false, "generate the clock-to-Q delay surface (the paper's primary formulation) instead of the output-level surface")
		surfOut   = fs.String("surface", "-", "surface CSV path (- for stdout)")
		contOut   = fs.String("contour", "", "extracted-contour CSV path (empty = skip)")
		doVet     = fs.Bool("vet", true, "run charvet pre-flight checks and abort on error findings")
		disable   = fs.String("disable", "", "comma-separated vet check IDs to skip")
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
	evalCfg := latchchar.EvalConfig{}
	if *doVet {
		// The n² grid makes a broken setup especially expensive: vet the
		// netlist and the sweep box before dispatching workers.
		spec := vet.Spec{
			Eval: evalCfg,
			Bounds: latchchar.Rect{
				MinS: *sMin * 1e-12, MaxS: *sMax * 1e-12,
				MinH: *hMin * 1e-12, MaxH: *hMax * 1e-12,
			},
		}
		if err := cli.Gate(os.Stderr, cell, spec, vet.Options{Disable: cli.SplitChecks(*disable)}); err != nil {
			return err
		}
	}
	surfOpts := latchchar.SurfaceOptions{
		N:    *n,
		Eval: evalCfg,
		Domain: latchchar.Rect{
			MinS: *sMin * 1e-12, MaxS: *sMax * 1e-12,
			MinH: *hMin * 1e-12, MaxH: *hMax * 1e-12,
		},
		Parallelism: *workers,
		Obs:         obsRun,
	}
	// ^C cancels the grid sweep; pending rows are abandoned within one
	// transient step each.
	ctx, stop := cli.SignalContext()
	defer stop()
	var sf *latchchar.Surface
	var contour []latchchar.Polyline
	var sims int
	var elapsed time.Duration
	var v [][]float64
	logger.Info("surface sweep starting", "cell", cell.Name, "n", *n, "delay_mode", *delayMode)
	if *delayMode {
		res, err := latchchar.BruteForceDelayCtx(ctx, cell, surfOpts)
		if err != nil {
			obsFlags.OnFailure(logger, os.Stderr, err)
			return err
		}
		sf, contour, sims, elapsed = res.Surface, res.Contour, res.Sims, res.Elapsed
		v = res.Surface.V // delays in seconds
	} else {
		res, err := latchchar.BruteForceCtx(ctx, cell, surfOpts)
		if err != nil {
			obsFlags.OnFailure(logger, os.Stderr, err)
			return err
		}
		sf, contour, sims, elapsed = res.Surface, res.Contour, res.Sims, res.Elapsed
		// The stored samples are h = Q(tf) − r; write the raw output voltage
		// (h + r), matching the surfaces of Figs. 1(a) and 9.
		v = make([][]float64, len(res.Surface.S))
		for i := range v {
			v[i] = make([]float64, len(res.Surface.H))
			for j := range v[i] {
				v[i][j] = res.Surface.V[i][j] + res.Calibration.R
			}
		}
	}
	fmt.Fprintf(os.Stderr, "cell %s: %d simulations in %v; %d contour polylines\n",
		cell.Name, sims, elapsed.Round(1e6), len(contour))
	logger.Info("surface sweep done", "cell", cell.Name, "sims", sims,
		"polylines", len(contour), "dur_ms", elapsed.Milliseconds())
	w, closeFn, err := cli.OpenOutput(*surfOut)
	if err != nil {
		return err
	}
	if err := cli.WriteSurfaceCSV(w, sf.S, sf.H, v); err != nil {
		closeFn()
		return err
	}
	if err := closeFn(); err != nil {
		return err
	}

	if *contOut != "" {
		polys := make([][][2]float64, len(contour))
		for k, pl := range contour {
			polys[k] = pl.Pts
		}
		cw, closeC, err := cli.OpenOutput(*contOut)
		if err != nil {
			return err
		}
		defer closeC()
		return cli.WritePolylinesCSV(cw, polys)
	}
	return nil
}
