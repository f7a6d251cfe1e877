package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"latchchar"
	"latchchar/internal/obs"
	"latchchar/internal/serve"
	"latchchar/serveclient"
)

// TestServeSmoke is the end-to-end daemon exercise behind `make servesmoke`:
// start latchchard on a random port, characterize the TSPC cell through the
// HTTP API while streaming its events, poll the job to completion, replay
// the finished job's events, check the metrics exposition, then drain via
// SIGTERM and require a clean exit.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full characterization")
	}
	addrFile := filepath.Join(t.TempDir(), "addr")
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-addrfile", addrFile,
			"-parallelism", "2",
			"-drain-timeout", "120s",
		})
	}()

	var base string
	for deadline := time.Now().Add(15 * time.Second); ; {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			base = "http://" + strings.TrimSpace(string(b))
			break
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited before listening: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon did not write the addrfile")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Post(base+"/v1/characterize", "application/json",
		strings.NewReader(`{"cell":"tspc","options":{"points":4}}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("characterize: status %d: %s", resp.StatusCode, body)
	}
	var job struct {
		ID     string `json:"id"`
		State  string `json:"state"`
		Error  string `json:"error"`
		Result *struct {
			Contour []json.RawMessage     `json:"contour"`
			Stats   serveclient.StatsJSON `json:"stats"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.ID == "" {
		t.Fatalf("no job id in %s", body)
	}
	// The stream replays the job's history so far, then relays each later
	// event, and ends when the job does: it carries every event the job
	// records.
	sc := serveclient.New(base)
	live := streamEvents(t, sc, job.ID)

	for deadline := time.Now().Add(120 * time.Second); ; {
		r, err := http.Get(base + "/v1/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("job poll: status %d: %s", r.StatusCode, b)
		}
		if err := json.Unmarshal(b, &job); err != nil {
			t.Fatal(err)
		}
		if job.State == "done" {
			break
		}
		if job.State == "failed" || job.State == "canceled" {
			t.Fatalf("job %s: %s", job.State, job.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", job.State)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if job.Result == nil || len(job.Result.Contour) == 0 {
		t.Fatal("finished job has an empty contour")
	}
	if st := job.Result.Stats; st.LUMS <= 0 || st.DeviceMS <= 0 || st.SensMS <= 0 ||
		st.LUMS+st.DeviceMS+st.SensMS > st.WallMS*(1+1e-9) {
		t.Errorf("result stats split wall_ms %v into lu %v, device %v, sens %v ms; want each positive, within the wall",
			st.WallMS, st.LUMS, st.DeviceMS, st.SensMS)
	}

	// Replayed from the finished record, the job's packed history must be
	// the complete trace: as many events as the job recorded, each equal to
	// the one the live stream relayed, passing the strict checker.
	replay := streamEvents(t, sc, job.ID)
	if len(replay) != len(live) {
		t.Errorf("finished job replays %d events, the job recorded %d", len(replay), len(live))
	} else {
		for i := range replay {
			if !reflect.DeepEqual(replay[i], live[i]) {
				t.Errorf("replayed event %d = %+v, streamed live as %+v", i, replay[i], live[i])
				break
			}
		}
	}
	if err := obs.Validate(replay); err != nil {
		t.Errorf("finished job's replay: %v", err)
	}
	if n := len(replay); n == 0 || replay[n-1].Kind != obs.KindRunEnd {
		t.Errorf("finished job's replay of %d events does not end in run_end", n)
	}
	t.Logf("finished job replays %d events", len(replay))

	r, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	met, _ := io.ReadAll(r.Body)
	r.Body.Close()
	for _, want := range []string{
		"calibrations_reused",
		"latchchard_jobs_done_total 1",
		"latchchard_request_seconds_bucket",
		"latchchard_goroutines",
	} {
		if !strings.Contains(string(met), want) {
			t.Errorf("/metrics missing %q:\n%s", want, met)
		}
	}
	// The exposition must pass the promtool-style lint: metadata on every
	// family, unique series, complete cumulative histograms.
	if err := serve.LintMetrics(strings.NewReader(string(met))); err != nil {
		t.Errorf("metrics lint: %v", err)
	}

	// /v1/statusz decodes into the public wire type via the Go client.
	st, err := sc.Statusz(context.Background())
	if err != nil {
		t.Fatalf("/v1/statusz: %v", err)
	}
	if st.JobsDone != 1 || st.Workers <= 0 || st.Runtime == nil {
		t.Errorf("statusz shape off: jobs_done=%d workers=%d runtime=%v",
			st.JobsDone, st.Workers, st.Runtime)
	}
	quantiled := false
	for _, q := range st.Latency {
		if q.Route == "/v1/jobs/{id}" && q.Count > 0 && q.P99MS >= q.P50MS {
			quantiled = true
		}
	}
	if !quantiled {
		t.Errorf("statusz has no job-poll latency quantiles: %+v", st.Latency)
	}

	// SIGTERM drains: the daemon must exit cleanly on its own.
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit after SIGTERM: %v", err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("daemon still listening after drain")
	}
}

// streamEvents reads job id's NDJSON event stream to its end.
func streamEvents(t *testing.T, sc *serveclient.Client, id string) []obs.Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	stream, err := sc.Stream(ctx, id)
	if err != nil {
		t.Fatalf("streaming job %s: %v", id, err)
	}
	defer stream.Close()
	var events []obs.Event
	for {
		raw, ok := stream.Next()
		if !ok {
			break
		}
		var e obs.Event
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("event %d of job %s: %v", len(events), id, err)
		}
		events = append(events, e)
	}
	if err := stream.Err(); err != nil {
		t.Fatalf("streaming job %s: %v", id, err)
	}
	return events
}

// TestServeSmokeFlightDump boots the daemon with a deliberately tiny job
// timeout and -dump-dir: the timed-out job must leave a validating
// flight-recorder dump on disk. CI points LATCHCHARD_SMOKE_DUMPDIR at a
// workspace path and uploads the dump as a build artifact.
func TestServeSmokeFlightDump(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a characterization into its timeout")
	}
	dumpDir := os.Getenv("LATCHCHARD_SMOKE_DUMPDIR")
	if dumpDir == "" {
		dumpDir = t.TempDir()
	} else if err := os.MkdirAll(dumpDir, 0o755); err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(t.TempDir(), "addr")
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-addrfile", addrFile,
			"-parallelism", "2",
			"-job-timeout", "300ms",
			"-dump-dir", dumpDir,
			"-log-level", "off",
			"-drain-timeout", "60s",
		})
	}()
	var base string
	for deadline := time.Now().Add(15 * time.Second); ; {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			base = "http://" + strings.TrimSpace(string(b))
			break
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited before listening: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon did not write the addrfile")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Work no solver speed finishes in 300ms: 100000 contour points, at
	// least one transient each, at a 0.001 ps Euler step that keeps the
	// trace from leaving the skew window early.
	resp, err := http.Post(base+"/v1/characterize", "application/json",
		strings.NewReader(`{"cell":"tspc","options":{"points":100000,"step_ps":0.001},"wait":true}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var job struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Corr  string `json:"corr"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	if job.State != "canceled" {
		t.Fatalf("state = %q (error %q), want canceled by the 300ms timeout", job.State, job.Error)
	}

	dumpPath := filepath.Join(dumpDir, "flight-"+job.ID+".jsonl")
	f, err := os.Open(dumpPath)
	if err != nil {
		t.Fatalf("dump not written: %v", err)
	}
	events, rerr := obs.ReadJSONL(f)
	f.Close()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if err := latchchar.ValidateObsDump(events); err != nil {
		t.Fatalf("dump fails validation: %v", err)
	}
	head := events[0]
	if head.Reason != "timeout" || head.Job != job.ID || head.Corr != job.Corr {
		t.Errorf("dump header reason=%q job=%q corr=%q (status corr %q)",
			head.Reason, head.Job, head.Corr, job.Corr)
	}

	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit after SIGTERM: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
}

// The flag set must reject unknown flags rather than silently serving.
func TestBadFlags(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
}
