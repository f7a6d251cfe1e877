// Package serveclient defines the stable v1 wire contract of the latchchard
// characterization service — every request, response, error envelope and
// status document the daemon speaks, single-node or clustered — plus a typed,
// context-first HTTP client. It is the one place wire types are defined: the
// server (internal/serve), the cluster coordinator, the load generator
// (cmd/latchload) and the acceptance tests all import these types, so schema
// drift is a compile error rather than a production surprise.
//
// The schema is versioned by URL prefix: every endpoint lives under /v1/ and
// breaking changes get a new prefix. See DESIGN.md §14 for the contract.
package serveclient

import "encoding/json"

// Job states, as carried by JobStatus.State.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// TerminalState reports whether a job state is final.
func TerminalState(s string) bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// CharacterizeRequest is the body of POST /v1/characterize.
type CharacterizeRequest struct {
	// Cell names a built-in register ("tspc", "c2mos", "tgate").
	Cell string `json:"cell,omitempty"`
	// Netlist is an inline SPICE-like deck; it overrides Cell (which then
	// only labels the deck). Process/Timing overrides do not apply to decks,
	// which carry their own stimulus.
	Netlist string `json:"netlist,omitempty"`
	// Process and Timing partially override the built-in cell's defaults;
	// absent fields keep their default values.
	Process json.RawMessage `json:"process,omitempty"`
	Timing  json.RawMessage `json:"timing,omitempty"`
	// Options select the characterization query.
	Options OptionsRequest `json:"options"`
	// Wait blocks the request until the job finishes and returns the full
	// result inline instead of 202 + job id.
	Wait bool `json:"wait,omitempty"`
	// NoCache bypasses the result cache (the request still coalesces onto
	// an identical in-flight job).
	NoCache bool `json:"no_cache,omitempty"`
}

// OptionsRequest is the wire form of the characterization options. The
// schema is a deliberate subset of the engine options — fields with
// process-local semantics (observability hooks, step recording) stay
// server-side. Every field must carry a stable json tag: the canonical JSON
// encoding of this struct feeds the sha256 coalescing key, on the worker and
// on the cluster coordinator's consistent-hash ring alike.
type OptionsRequest struct {
	// Points is the contour point budget per trace direction (default 40).
	Points int `json:"points,omitempty"`
	// StepPS is the Euler step length α in picoseconds (default 5).
	StepPS float64 `json:"step_ps,omitempty"`
	// BothDirections traces the curve both ways from the seed.
	BothDirections bool `json:"both_directions,omitempty"`
	// Resample redistributes the contour into exactly N arc-length-uniform
	// points (0 = off).
	Resample int `json:"resample,omitempty"`
	// Degrade is the clock-to-Q degradation fraction defining setup/hold
	// (default 0.10).
	Degrade float64 `json:"degrade,omitempty"`
	// MaxSetupSkewPS bounds the skew domain in picoseconds.
	MaxSetupSkewPS float64 `json:"max_setup_skew_ps,omitempty"`
	// Method selects the integration scheme: "be" (default) or "trap".
	Method string `json:"method,omitempty"`
	// FastPath is accepted and ignored: the chord/bypass fast path it
	// selected is gone (DESIGN §10), so every request takes the exact Newton
	// step. It does not take part in the coalescing key.
	FastPath bool `json:"fast_path,omitempty"`
	// Block is the tracer's predictor lookahead width: a value > 1 corrects
	// a bundle of Block predicted points as one lockstep block-transient
	// (DESIGN §13). 0 or 1 keeps the scalar predictor.
	Block int `json:"block,omitempty"`

	// MCSamples > 0 turns the request into a variance-aware Monte-Carlo
	// characterization (DESIGN §16): the nominal corner is characterized
	// once, MCSamples process draws are solved by warm probe polishing, and
	// the result carries sigma percentile contours. Built-in cells only —
	// inline netlists carry no process parameters to perturb. All MC fields
	// participate in the coalescing key through the canonical encoding.
	MCSamples int `json:"mc_samples,omitempty"`
	// Sampler selects the process-draw scheme: "iid" (default), "lhs"
	// (Latin hypercube) or "sobol" (scrambled Sobol).
	Sampler string `json:"sampler,omitempty"`
	// Seed makes the draw deterministic; the sample set is a pure function
	// of (seed, sampler, mc_samples, sigma_vt, sigma_kp).
	Seed int64 `json:"seed,omitempty"`
	// SigmaVT and SigmaKP are the relative 1σ variations applied to
	// threshold voltages and transconductances (defaults 3% and 5%).
	SigmaVT float64 `json:"sigma_vt,omitempty"`
	SigmaKP float64 `json:"sigma_kp,omitempty"`
	// SigmaLevel is the percentile-band half-width in sample standard
	// deviations (default 3 — the 3σ band).
	SigmaLevel float64 `json:"sigma_level,omitempty"`
	// MCProbes is the number of probe points the per-sample deltas are
	// measured at (default 12).
	MCProbes int `json:"mc_probes,omitempty"`
}

// BatchRequest is the body of POST /v1/batch: the jobs run as one engine
// batch, so jobs sharing a cell warm-start from their group leader. On a
// cluster coordinator the items are partitioned across workers by their
// individual coalescing keys, so identical items land on the same node.
type BatchRequest struct {
	Jobs []BatchJobRequest `json:"jobs"`
	Wait bool              `json:"wait,omitempty"`
}

// BatchJobRequest is one job of a batch. Wait and NoCache on the embedded
// request are ignored for batch items.
type BatchJobRequest struct {
	CharacterizeRequest
	// Name labels the job in the results (default: the cell name).
	Name string `json:"name,omitempty"`
	// Cold opts the job out of warm-start seeding.
	Cold bool `json:"cold,omitempty"`
}

// JobStatus is the response of GET /v1/jobs/{id} and of synchronous
// characterize/batch requests.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"` // queued, running, done, failed, canceled
	// Corr is the correlation ID of the request that created the job; every
	// daemon log line and NDJSON event of the job carries the same ID.
	// Coalesced requests keep the creating request's ID.
	Corr string `json:"corr,omitempty"`
	// Coalesced counts the extra requests that attached to this job instead
	// of running their own characterization.
	Coalesced int `json:"coalesced,omitempty"`
	// Cached reports the response was served from the result cache.
	Cached bool `json:"cached,omitempty"`
	// QueuedMS, RunMS report wall-clock spent queued and running.
	QueuedMS float64 `json:"queued_ms,omitempty"`
	RunMS    float64 `json:"run_ms,omitempty"`
	Error    string  `json:"error,omitempty"`
	// Partial reports a canceled job that still carries the contour prefix
	// traced before cancellation.
	Partial bool        `json:"partial,omitempty"`
	Result  *ResultJSON `json:"result,omitempty"`
	// Results holds per-job outcomes for batch jobs, in request order.
	Results []BatchItemJSON `json:"results,omitempty"`
}

// Terminal reports whether the job reached a final state.
func (s *JobStatus) Terminal() bool { return TerminalState(s.State) }

// ResultJSON renders a characterization result. For a Monte-Carlo request
// the top-level fields describe the nominal corner and Sigma carries the
// statistical estimate.
type ResultJSON struct {
	Cell        string          `json:"cell"`
	Contour     []PointJSON     `json:"contour"`
	Calibration CalibrationJSON `json:"calibration"`
	PlainSims   int             `json:"plain_sims"`
	GradSims    int             `json:"grad_sims"`
	TotalSims   int             `json:"total_sims"`
	ElapsedMS   float64         `json:"elapsed_ms"`
	Stats       StatsJSON       `json:"stats"`
	Sigma       *SigmaJSON      `json:"sigma,omitempty"`
}

// SigmaJSON renders the percentile-contour estimate of a variance-aware
// Monte-Carlo run. Probes, DeltaMeanPS/DeltaStdPS, Inner and Outer are
// parallel arrays over the covered probe points.
type SigmaJSON struct {
	// Level is the band half-width in sample standard deviations.
	Level float64 `json:"level"`
	// Samples counts the sample contours folded into the estimate;
	// WarmSamples of the run's draws were solved by warm probe polishing,
	// ColdFallbacks by a full characterization.
	Samples       int `json:"samples"`
	WarmSamples   int `json:"warm_samples"`
	ColdFallbacks int `json:"cold_fallbacks,omitempty"`
	// RunSims is the whole run's transient count (nominal included);
	// SimsSaved estimates the transients avoided vs naive per-sample
	// re-characterization (the mc_sims_saved counter).
	RunSims   int `json:"run_sims"`
	SimsSaved int `json:"sims_saved"`
	// Probes are the nominal probe points the deltas were measured at.
	Probes []PointJSON `json:"probes"`
	// DeltaMeanPS and DeltaStdPS are the per-probe normal-delta statistics
	// in picoseconds (positive = toward larger skews).
	DeltaMeanPS []float64 `json:"delta_mean_ps"`
	DeltaStdPS  []float64 `json:"delta_std_ps"`
	// Inner is the restrictive band edge (nominal + mean + level·std along
	// the probe normal); Outer the permissive one.
	Inner []PointJSON `json:"inner"`
	Outer []PointJSON `json:"outer"`
}

// PointJSON is one contour point, skews in picoseconds as in the CLI CSV.
type PointJSON struct {
	TauSPs float64 `json:"tau_s_ps"`
	TauHPs float64 `json:"tau_h_ps"`
	H      float64 `json:"h_volts"`
	Iters  int     `json:"corrector_iters"`
}

// CalibrationJSON renders the measured characteristic timing.
type CalibrationJSON struct {
	CharDelayPS float64 `json:"char_delay_ps"`
	TCNs        float64 `json:"tc_ns"`
	TfNs        float64 `json:"tf_ns"`
	R           float64 `json:"r_volts"`
	Rising      bool    `json:"rising"`
}

// StatsJSON renders the integrator-level work aggregate.
type StatsJSON struct {
	Steps            int     `json:"steps"`
	NewtonIters      int     `json:"newton_iters"`
	Factorizations   int     `json:"factorizations"`
	SensSolves       int     `json:"sens_solves"`
	BlockSharedSteps int     `json:"block_shared_steps,omitempty"`
	BlockPeelOffs    int     `json:"block_peel_offs,omitempty"`
	WallMS           float64 `json:"wall_ms"`
	// LUMS, DeviceMS and SensMS split WallMS by layer: LU factorization and
	// solve, device evaluation and assembly, and sensitivity solves. The
	// engine clocks a sample of the steps and splits the exact wall time in
	// their proportions, so the three never sum past WallMS; the remainder
	// is the step loop's own time. They are response-only: served jobs run
	// under an obs run, which turns the sampling on.
	LUMS     float64 `json:"lu_ms"`
	DeviceMS float64 `json:"device_ms"`
	SensMS   float64 `json:"sens_ms"`

	// The v1 schema keeps the fast path's counters, but the chord/bypass
	// fast path is gone (DESIGN §10) and no server sets them.

	// Deprecated: never set.
	ChordIters int `json:"chord_iters,omitempty"`
	// Deprecated: never set.
	JacobianReuses int `json:"jacobian_reuses,omitempty"`
	// Deprecated: never set.
	DeviceBypasses int `json:"device_bypasses,omitempty"`
	// Deprecated: never set.
	BlockDonorReplays int `json:"block_donor_replays,omitempty"`
}

// BatchItemJSON is one batch job's outcome.
type BatchItemJSON struct {
	Name              string      `json:"name"`
	Index             int         `json:"index"`
	Error             string      `json:"error,omitempty"`
	WarmStarted       bool        `json:"warm_started,omitempty"`
	CalibrationReused bool        `json:"calibration_reused,omitempty"`
	Result            *ResultJSON `json:"result,omitempty"`
}

// HealthStatus is the body of GET /v1/healthz.
type HealthStatus struct {
	Status string `json:"status"` // "ok" or "draining"
}
