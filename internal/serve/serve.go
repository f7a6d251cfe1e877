// Package serve is the single-node HTTP transport of the characterization
// service: routing, the v1 wire codec, middleware and telemetry over the
// transport-agnostic job core (internal/serve/jobcore), which owns the
// queue, coalescing, result cache and drain semantics. The cluster
// coordinator (internal/serve/cluster) reuses the same Router, error
// envelope and latency plumbing, and forwards to nodes running this server.
//
// Endpoints (all under the /v1/ prefix; the wire schema is defined in the
// public serveclient package and documented as a stable contract in
// DESIGN.md §14):
//
//	POST /v1/characterize     one job (async 202 + job id, or "wait": true)
//	POST /v1/batch            one engine batch with warm-start grouping
//	GET  /v1/jobs/{id}        job status + result
//	GET  /v1/jobs/{id}/events NDJSON live event stream (obs schema v1)
//	GET  /v1/healthz          liveness (503 while draining)
//	GET  /v1/metrics          Prometheus text: serve + engine + obs counters
//	GET  /v1/statusz          rolling-window JSON status
//	GET  /debug/pprof/        standard Go profiling handlers
//
// The pre-v1 routes /healthz, /metrics and /statusz answer one more release
// as 308 redirects onto their /v1/ successors, with Deprecation headers.
// Every non-2xx response (outside the documented failed-wait-job case)
// carries the typed error envelope {"error": {code, message,
// correlation_id}}, and every backpressure rejection (429 queue-full, 503
// draining) carries Retry-After.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"time"

	"latchchar"
	"latchchar/internal/obs"
	"latchchar/internal/serve/jobcore"
	"latchchar/serveclient"
)

// Config configures a Server. Core fields are forwarded to jobcore.Config;
// RetryAfter is transport-level (the backpressure header hint).
type Config struct {
	// Engine runs the characterizations (required).
	Engine *latchchar.Engine
	// QueueDepth bounds accepted-but-unfinished jobs (default 64). A full
	// queue rejects with 429 + Retry-After.
	QueueDepth int
	// Workers bounds concurrently running jobs (default: the engine's
	// parallelism).
	Workers int
	// JobTimeout is the server-side per-job deadline (default 10 min;
	// negative disables).
	JobTimeout time.Duration
	// ResultCacheSize bounds the result LRU in entries (default 128;
	// negative disables).
	ResultCacheSize int
	// MaxJobs bounds retained job records (default 1024).
	MaxJobs int
	// RetryAfter is the backpressure hint on 429/503 responses (default 2s).
	RetryAfter time.Duration
	// ProgressInterval is the progress-event cadence on job event streams
	// (default 250ms).
	ProgressInterval time.Duration
	// Logger receives structured request and job-lifecycle logs (default
	// slog.Default()). The daemon installs a JSON handler here.
	Logger *slog.Logger
	// DumpDir, when non-empty, receives flight-recorder post-mortem dumps.
	DumpDir string
	// FlightRecorderSize bounds each job's flight-recorder ring in events
	// (default obs.DefaultRecorderCapacity; negative disables recording).
	FlightRecorderSize int
	// RuntimeSampleInterval is the runtime self-telemetry cadence (default
	// 10s; negative disables the sampler).
	RuntimeSampleInterval time.Duration
	// MockJobTime, when positive, replaces solver work with a fixed
	// synthetic service time (see jobcore.Config.MockJobTime). Load-test
	// only.
	MockJobTime time.Duration
}

// Server is the single-node characterization service. Construct with New;
// it implements http.Handler. Stop with Drain (graceful) and/or Close.
type Server struct {
	cfg  Config
	core *jobcore.Core
	rt   *Router
}

// New starts a server over a fresh job core.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("serve: Config.Engine must be set")
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 2 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	core, err := jobcore.New(jobcore.Config{
		Engine:                cfg.Engine,
		QueueDepth:            cfg.QueueDepth,
		Workers:               cfg.Workers,
		JobTimeout:            cfg.JobTimeout,
		ResultCacheSize:       cfg.ResultCacheSize,
		MaxJobs:               cfg.MaxJobs,
		ProgressInterval:      cfg.ProgressInterval,
		Logger:                cfg.Logger,
		DumpDir:               cfg.DumpDir,
		FlightRecorderSize:    cfg.FlightRecorderSize,
		RuntimeSampleInterval: cfg.RuntimeSampleInterval,
		MockJobTime:           cfg.MockJobTime,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, core: core, rt: NewRouter(cfg.Logger)}
	s.rt.Handle("POST /v1/characterize", "/v1/characterize", s.handleCharacterize)
	s.rt.Handle("POST /v1/batch", "/v1/batch", s.handleBatch)
	s.rt.Handle("GET /v1/jobs/{id}", "/v1/jobs/{id}", s.handleJob)
	s.rt.Handle("GET /v1/jobs/{id}/events", "/v1/jobs/{id}/events", s.handleJobEvents)
	s.rt.Handle("GET /v1/healthz", "/v1/healthz", s.handleHealthz)
	s.rt.Handle("GET /v1/metrics", "/v1/metrics", s.handleMetrics)
	s.rt.Handle("GET /v1/statusz", "/v1/statusz", s.handleStatusz)
	// Deprecated pre-v1 aliases, one release of 308s before removal.
	s.rt.Redirect("/healthz", "/v1/healthz")
	s.rt.Redirect("/metrics", "/v1/metrics")
	s.rt.Redirect("/statusz", "/v1/statusz")
	s.rt.HandleRaw("GET /debug/pprof/", pprof.Index)
	s.rt.HandleRaw("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.rt.HandleRaw("GET /debug/pprof/profile", pprof.Profile)
	s.rt.HandleRaw("GET /debug/pprof/symbol", pprof.Symbol)
	s.rt.HandleRaw("GET /debug/pprof/trace", pprof.Trace)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.rt.ServeHTTP(w, r) }

// Core exposes the underlying job core (tests and embedders).
func (s *Server) Core() *jobcore.Core { return s.core }

// Drain stops accepting new work (requests get 503 + Retry-After) and waits
// for queued and running jobs to finish; see jobcore.Core.Drain.
func (s *Server) Drain(ctx context.Context) error { return s.core.Drain(ctx) }

// Close cancels everything immediately.
func (s *Server) Close() { s.core.Close() }

// Draining reports whether the server has stopped accepting work.
func (s *Server) Draining() bool { return s.core.Draining() }

// Summary returns the server's aggregated observability counters and phase
// stats over all finished jobs (the data behind /metrics).
func (s *Server) Summary() obs.Summary { return s.core.Summary() }

// --- HTTP handlers ---

const maxBodyBytes = 8 << 20

func (s *Server) handleCharacterize(w http.ResponseWriter, r *http.Request) {
	s.core.Counters().Requests.Add(1)
	var req serveclient.CharacterizeRequest
	if !s.decode(w, r, &req) {
		return
	}
	var (
		j      *jobcore.Job
		cached bool
	)
	if req.Options.MCSamples > 0 {
		mk, nominal, mcOpts, key, err := jobcore.ResolveMC(&req)
		if err != nil {
			WriteError(w, r, http.StatusBadRequest, serveclient.CodeInvalidRequest, err.Error())
			return
		}
		j, cached, err = s.core.SubmitMC(key, ReqCorr(r), mk, nominal, mcOpts, req.NoCache)
		if err != nil {
			s.reject(w, r, err)
			return
		}
	} else {
		cell, opts, key, err := jobcore.Resolve(&req)
		if err != nil {
			WriteError(w, r, http.StatusBadRequest, serveclient.CodeInvalidRequest, err.Error())
			return
		}
		j, cached, err = s.core.Submit(key, ReqCorr(r), cell, opts, req.NoCache)
		if err != nil {
			s.reject(w, r, err)
			return
		}
	}
	if cached {
		st := j.Status()
		st.Cached = true
		s.json(w, http.StatusOK, st)
		return
	}
	if req.Wait {
		s.waitAndRespond(w, r, j)
		return
	}
	s.accepted(w, j)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.core.Counters().Requests.Add(1)
	var req serveclient.BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	jobs, _, err := jobcore.ResolveBatch(&req)
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, serveclient.CodeInvalidRequest, err.Error())
		return
	}
	j, err := s.core.SubmitBatch(jobs, ReqCorr(r))
	if err != nil {
		s.reject(w, r, err)
		return
	}
	if req.Wait {
		s.waitAndRespond(w, r, j)
		return
	}
	s.accepted(w, j)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.core.Lookup(r.PathValue("id"))
	if j == nil {
		WriteError(w, r, http.StatusNotFound, serveclient.CodeNotFound,
			fmt.Sprintf("unknown job %q", r.PathValue("id")))
		return
	}
	s.json(w, http.StatusOK, j.Status())
}

// handleJobEvents streams the job's obs events as NDJSON: the full replay
// history first, then live events until the job finishes or the client
// disconnects.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.core.Lookup(r.PathValue("id"))
	if j == nil {
		WriteError(w, r, http.StatusNotFound, serveclient.CodeNotFound,
			fmt.Sprintf("unknown job %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	history, live, cancel := j.Subscribe(1024)
	defer cancel()
	enc := json.NewEncoder(w)
	for i := range history {
		if enc.Encode(&history[i]) != nil {
			return
		}
	}
	flush()
	for {
		select {
		case e := <-live:
			if enc.Encode(&e) != nil {
				return
			}
			flush()
		case <-j.Done():
			// Drain what the subscription buffered before done closed.
			for {
				select {
				case e := <-live:
					if enc.Encode(&e) != nil {
						return
					}
				default:
					flush()
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		SetRetryAfter(w, s.cfg.RetryAfter)
		WriteError(w, r, http.StatusServiceUnavailable, serveclient.CodeDraining, "server is draining")
		return
	}
	s.json(w, http.StatusOK, serveclient.HealthStatus{Status: "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}

// --- response helpers ---

func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		WriteError(w, r, http.StatusBadRequest, serveclient.CodeInvalidRequest,
			fmt.Sprintf("decoding request: %v", err))
		return false
	}
	return true
}

// waitAndRespond blocks until the job finishes (200/500 with the full
// status) or the client gives up (the job keeps running; other waiters and
// pollers still get it). A failed wait-job deliberately returns the
// JobStatus body, not the error envelope: the job's failure is an outcome,
// and the status carries the error string plus any partial contour.
func (s *Server) waitAndRespond(w http.ResponseWriter, r *http.Request, j *jobcore.Job) {
	select {
	case <-j.Done():
		st := j.Status()
		code := http.StatusOK
		if st.State == serveclient.StateFailed {
			code = http.StatusInternalServerError
		}
		s.json(w, code, st)
	case <-r.Context().Done():
		// Client disconnected; nothing useful to write.
	}
}

func (s *Server) accepted(w http.ResponseWriter, j *jobcore.Job) {
	w.Header().Set("Location", "/v1/jobs/"+j.ID())
	s.json(w, http.StatusAccepted, j.Status())
}

// reject maps a jobcore backpressure rejection onto its transport form.
// Every backpressure response — queue-full 429 and draining 503 alike —
// carries Retry-After.
func (s *Server) reject(w http.ResponseWriter, r *http.Request, err error) {
	var se *jobcore.SubmitError
	if errors.As(err, &se) {
		SetRetryAfter(w, s.cfg.RetryAfter)
		if se.Reason == jobcore.ReasonDraining {
			WriteError(w, r, http.StatusServiceUnavailable, serveclient.CodeDraining, se.Error())
		} else {
			WriteError(w, r, http.StatusTooManyRequests, serveclient.CodeQueueFull, se.Error())
		}
		return
	}
	WriteError(w, r, http.StatusInternalServerError, serveclient.CodeInternal, err.Error())
}

func (s *Server) json(w http.ResponseWriter, code int, v any) {
	if err := WriteJSON(w, code, v); err != nil {
		s.cfg.Logger.Warn("writing response failed", "error", err.Error())
	}
}
