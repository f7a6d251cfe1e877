package jobcore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"latchchar"
	"latchchar/internal/transient"
	"latchchar/serveclient"
)

// Conversion between the serveclient wire schema and engine-level types.
// The wire types themselves live in serveclient (the stable contract); what
// lives here is the server-side semantics: resolving a request to a
// buildable cell, mapping wire options onto engine options, deriving the
// coalescing key, and rendering results. Both the single-node transport and
// the cluster coordinator route requests through these, so a job hashes and
// validates identically on every node.

// ResolveCell turns a request into a buildable cell: an inline deck, or a
// built-in cell with Process/Timing overrides decoded on top of its
// defaults.
func ResolveCell(req *serveclient.CharacterizeRequest) (*latchchar.Cell, error) {
	if req.Netlist != "" {
		if len(req.Process) > 0 || len(req.Timing) > 0 {
			return nil, fmt.Errorf("process/timing overrides do not apply to inline netlists (the deck carries its own stimulus)")
		}
		deck, err := latchchar.ParseNetlistString(req.Netlist)
		if err != nil {
			return nil, err
		}
		name := req.Cell
		if name == "" {
			name = "netlist"
		}
		return deck.Cell(name), nil
	}
	name := req.Cell
	if name == "" {
		return nil, fmt.Errorf("request needs a cell name or an inline netlist")
	}
	base, err := latchchar.CellByName(name)
	if err != nil {
		return nil, err
	}
	p, tm := base.Process, base.Timing
	if len(req.Process) > 0 {
		if err := json.Unmarshal(req.Process, &p); err != nil {
			return nil, fmt.Errorf("process override: %w", err)
		}
	}
	if len(req.Timing) > 0 {
		if err := json.Unmarshal(req.Timing, &tm); err != nil {
			return nil, fmt.Errorf("timing override: %w", err)
		}
	}
	if len(req.Process) == 0 && len(req.Timing) == 0 {
		return base, nil
	}
	switch name {
	case "tspc":
		return latchchar.TSPCCell(p, tm), nil
	case "c2mos":
		return latchchar.C2MOSCell(p, tm, 0), nil // 0 selects the default clk̄ delay
	case "tgate":
		return latchchar.TGateCell(p, tm), nil
	}
	return nil, fmt.Errorf("cell %q does not accept process/timing overrides", name)
}

// ToOptions converts the wire options to characterization options. The
// engine's own Options.Validate runs downstream and covers ranges; only
// wire-level choices (the method name) are checked here.
func ToOptions(o serveclient.OptionsRequest) (latchchar.Options, error) {
	eval := latchchar.EvalConfig{
		Degrade:      o.Degrade,
		MaxSetupSkew: o.MaxSetupSkewPS * 1e-12,
	}
	opts := latchchar.Options{
		Points:         o.Points,
		Step:           o.StepPS * 1e-12,
		BothDirections: o.BothDirections,
		Resample:       o.Resample,
		Block:          o.Block,
		Eval:           eval,
	}
	switch o.Method {
	case "", "be":
		opts.Eval.Method = transient.BE
	case "trap":
		opts.Eval.Method = transient.TRAP
	default:
		return opts, fmt.Errorf("unknown method %q (have be, trap)", o.Method)
	}
	return opts, nil
}

// Resolve validates one characterize request end to end: cell resolution,
// option mapping, engine-level option validation, and the coalescing key.
// Monte-Carlo requests (Options.MCSamples > 0) resolve through ResolveMC —
// the returned cell is the nominal corner's — so a cluster edge derives the
// same key and rejects the same invalid requests as the worker it forwards
// to.
func Resolve(req *serveclient.CharacterizeRequest) (*latchchar.Cell, latchchar.Options, string, error) {
	if req.Options.MCSamples > 0 {
		mk, nominal, mcOpts, key, err := ResolveMC(req)
		if err != nil {
			return nil, latchchar.Options{}, "", err
		}
		return mk(nominal), mcOpts.Characterize, key, nil
	}
	cell, err := ResolveCell(req)
	if err != nil {
		return nil, latchchar.Options{}, "", err
	}
	opts, err := ToOptions(req.Options)
	if err != nil {
		return nil, latchchar.Options{}, "", err
	}
	if err := opts.Validate(); err != nil {
		return nil, latchchar.Options{}, "", err
	}
	return cell, opts, RequestKey(req, cell), nil
}

// ToMCOptions converts the wire options to Monte-Carlo options around the
// already-mapped characterization options.
func ToMCOptions(o serveclient.OptionsRequest, charOpts latchchar.Options) (latchchar.MCOptions, error) {
	mc := latchchar.MCOptions{
		Samples:      o.MCSamples,
		Seed:         o.Seed,
		Sampler:      latchchar.Sampler(o.Sampler),
		SigmaVT:      o.SigmaVT,
		SigmaKP:      o.SigmaKP,
		SigmaLevel:   o.SigmaLevel,
		Probes:       o.MCProbes,
		Characterize: charOpts,
	}
	return mc, mc.Validate()
}

// ResolveMC resolves a Monte-Carlo request: a cell maker over the process
// axes, the nominal process, the mapped MC options and the coalescing key.
// Only built-in cells qualify — an inline netlist carries no process
// parameters to perturb.
func ResolveMC(req *serveclient.CharacterizeRequest) (func(latchchar.Process) *latchchar.Cell, latchchar.Process, latchchar.MCOptions, string, error) {
	fail := func(err error) (func(latchchar.Process) *latchchar.Cell, latchchar.Process, latchchar.MCOptions, string, error) {
		return nil, latchchar.Process{}, latchchar.MCOptions{}, "", err
	}
	if req.Netlist != "" {
		return fail(fmt.Errorf("monte-carlo requests need a built-in cell (inline netlists carry no process parameters to perturb)"))
	}
	name := req.Cell
	if name == "" {
		return fail(fmt.Errorf("request needs a cell name"))
	}
	base, err := latchchar.CellByName(name)
	if err != nil {
		return fail(err)
	}
	p, tm := base.Process, base.Timing
	if len(req.Process) > 0 {
		if err := json.Unmarshal(req.Process, &p); err != nil {
			return fail(fmt.Errorf("process override: %w", err))
		}
	}
	if len(req.Timing) > 0 {
		if err := json.Unmarshal(req.Timing, &tm); err != nil {
			return fail(fmt.Errorf("timing override: %w", err))
		}
	}
	mk, err := latchchar.CellMakerByName(name, tm)
	if err != nil {
		return fail(fmt.Errorf("cell %q does not support monte-carlo characterization", name))
	}
	charOpts, err := ToOptions(req.Options)
	if err != nil {
		return fail(err)
	}
	if err := charOpts.Validate(); err != nil {
		return fail(err)
	}
	mcOpts, err := ToMCOptions(req.Options, charOpts)
	if err != nil {
		return fail(err)
	}
	return mk, p, mcOpts, RequestKey(req, mk(p)), nil
}

// ResolveBatch validates every batch item and returns the engine jobs plus
// each item's individual coalescing key (the cluster coordinator partitions
// a batch across workers by these keys; single-node mode ignores them).
func ResolveBatch(req *serveclient.BatchRequest) ([]latchchar.Job, []string, error) {
	if len(req.Jobs) == 0 {
		return nil, nil, fmt.Errorf("batch needs at least one job")
	}
	jobs := make([]latchchar.Job, len(req.Jobs))
	keys := make([]string, len(req.Jobs))
	for i := range req.Jobs {
		item := &req.Jobs[i]
		if item.Options.MCSamples > 0 {
			return nil, nil, fmt.Errorf("jobs[%d]: monte-carlo requests are not batchable; submit them to /v1/characterize", i)
		}
		cell, opts, key, err := Resolve(&item.CharacterizeRequest)
		if err != nil {
			return nil, nil, fmt.Errorf("jobs[%d]: %w", i, err)
		}
		jobs[i] = latchchar.Job{Name: item.Name, Cell: cell, Opts: opts, Cold: item.Cold}
		keys[i] = key
	}
	return jobs, keys, nil
}

// RequestKey derives the coalescing/result-cache key: a digest over the
// resolved cell identity (name, process, timing — or the raw deck text) and
// the normalized wire options, mirroring the engine's calibration LRU key
// plus the query parameters. The same key partitions jobs across the
// cluster ring, which is what makes coalescing work cross-node. The ignored
// fast_path option is cleared first, so it cannot split identical work.
func RequestKey(req *serveclient.CharacterizeRequest, cell *latchchar.Cell) string {
	opts := req.Options
	opts.FastPath = false
	canonical := struct {
		Netlist string
		Name    string
		Process latchchar.Process
		Timing  latchchar.Timing
		Options serveclient.OptionsRequest
	}{
		Netlist: req.Netlist,
		Name:    cell.Name,
		Process: cell.Process,
		Timing:  cell.Timing,
		Options: opts,
	}
	b, err := json.Marshal(canonical)
	if err != nil {
		// Process/Timing/OptionsRequest are plain scalar structs; Marshal
		// cannot fail on them. Fall back to an uncoalescable key.
		return fmt.Sprintf("unkeyed-%p", req)
	}
	sum := sha256.Sum256(b)
	return "v1:" + hex.EncodeToString(sum[:])
}

// RenderResult renders a Result (nil-safe: canceled jobs may carry none).
func RenderResult(cell string, res *latchchar.Result) *serveclient.ResultJSON {
	if res == nil {
		return nil
	}
	out := &serveclient.ResultJSON{
		Cell:      cell,
		Contour:   []serveclient.PointJSON{},
		PlainSims: res.PlainSims,
		GradSims:  res.GradSims,
		TotalSims: res.TotalSims(),
		ElapsedMS: DurMS(res.Elapsed),
		Calibration: serveclient.CalibrationJSON{
			CharDelayPS: res.Calibration.CharDelay * 1e12,
			TCNs:        res.Calibration.TC * 1e9,
			TfNs:        res.Calibration.Tf * 1e9,
			R:           res.Calibration.R,
			Rising:      res.Calibration.Rising,
		},
		Stats: serveclient.StatsJSON{
			Steps:            res.Stats.Steps,
			NewtonIters:      res.Stats.NewtonIters,
			Factorizations:   res.Stats.Factorizations,
			SensSolves:       res.Stats.SensSolves,
			BlockSharedSteps: res.Stats.BlockSharedSteps,
			BlockPeelOffs:    res.Stats.BlockPeelOffs,
			WallMS:           DurMS(res.Stats.Wall),
			LUMS:             DurMS(res.Stats.LU),
			DeviceMS:         DurMS(res.Stats.DeviceEval),
			SensMS:           DurMS(res.Stats.Sens),
		},
	}
	if res.Contour != nil {
		for _, p := range res.Contour.Points {
			out.Contour = append(out.Contour, serveclient.PointJSON{
				TauSPs: p.TauS * 1e12,
				TauHPs: p.TauH * 1e12,
				H:      p.H,
				Iters:  p.CorrectorIters,
			})
		}
	}
	return out
}

// RenderMCResult renders a variance-aware Monte-Carlo outcome: the nominal
// corner as the base result plus the sigma percentile estimate (nil-safe on
// both levels — canceled runs may carry a nominal result without a sigma
// estimate, or nothing at all).
func RenderMCResult(cell string, mc *latchchar.MCResult) *serveclient.ResultJSON {
	if mc == nil {
		return nil
	}
	out := RenderResult(cell, mc.Nominal)
	if out == nil || mc.Sigma == nil {
		return out
	}
	sig := &serveclient.SigmaJSON{
		Level:         mc.Sigma.Level,
		Samples:       mc.Sigma.Samples,
		WarmSamples:   mc.WarmSamples,
		ColdFallbacks: mc.ColdFallbacks,
		RunSims:       mc.TotalSims,
		SimsSaved:     mc.SimsSaved,
	}
	for j, p := range mc.Sigma.Probes {
		sig.Probes = append(sig.Probes, serveclient.PointJSON{
			TauSPs: p.TauS * 1e12, TauHPs: p.TauH * 1e12, H: p.H, Iters: p.CorrectorIters,
		})
		sig.DeltaMeanPS = append(sig.DeltaMeanPS, mc.Sigma.Delta[j].Mean*1e12)
		sig.DeltaStdPS = append(sig.DeltaStdPS, mc.Sigma.Delta[j].Std*1e12)
		in, outp := mc.Sigma.Inner.Points[j], mc.Sigma.Outer.Points[j]
		sig.Inner = append(sig.Inner, serveclient.PointJSON{TauSPs: in.TauS * 1e12, TauHPs: in.TauH * 1e12})
		sig.Outer = append(sig.Outer, serveclient.PointJSON{TauSPs: outp.TauS * 1e12, TauHPs: outp.TauH * 1e12})
	}
	out.Sigma = sig
	return out
}

// DurMS converts a duration to float milliseconds for wire rendering.
func DurMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
