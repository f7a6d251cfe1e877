package jobcore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"latchchar"
	"latchchar/internal/obs"
	"latchchar/internal/sched"
	"latchchar/serveclient"
)

func newTestCore(t *testing.T, cfg Config) *Core {
	t.Helper()
	if cfg.Engine == nil {
		eng, err := latchchar.NewEngine(latchchar.EngineOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		cfg.Engine = eng
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// blockingCell returns a cell whose Build blocks until release is closed,
// pinning a job inside the engine without burning simulation time.
func blockingCell(name string, release <-chan struct{}) *latchchar.Cell {
	return &latchchar.Cell{Name: name, Build: func() (*latchchar.Instance, error) {
		<-release
		return nil, errors.New("released")
	}}
}

// A full queue rejects with ReasonQueueFull and frees the slot again once a
// job drains.
func TestQueueFullBackpressure(t *testing.T) {
	c := newTestCore(t, Config{Workers: 1, QueueDepth: 1})

	release := make(chan struct{})
	submit := func(key string) (*Job, error) {
		j, cached, err := c.Submit(key, "", blockingCell(key, release), latchchar.Options{}, false)
		if cached {
			t.Fatalf("unexpected cache hit for %s", key)
		}
		return j, err
	}
	a, err := submit("a")
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the single worker holds job a, so job b occupies the one
	// queue slot deterministically.
	for {
		if st := a.Status(); st.State == serveclient.StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	b, err := submit("b")
	if err != nil {
		t.Fatal(err)
	}
	_, err = submit("c")
	var se *SubmitError
	if !errors.As(err, &se) || se.Reason != ReasonQueueFull {
		t.Fatalf("third submit: %v, want queue-full rejection", err)
	}
	if se.HTTPStatus() != http.StatusTooManyRequests {
		t.Errorf("queue-full HTTPStatus = %d, want 429", se.HTTPStatus())
	}

	close(release)
	<-a.Done()
	<-b.Done()
	// Both blocked jobs failed their build — but they freed the queue.
	if st := a.Status(); st.State != serveclient.StateFailed {
		t.Errorf("job a: state %q", st.State)
	}
	if c.Counters().RejectedFull.Load() != 1 {
		t.Errorf("RejectedFull = %d", c.Counters().RejectedFull.Load())
	}
	if _, err := submit("d"); err != nil {
		t.Errorf("submit after drain of queue: %v", err)
	}
}

// Identical concurrent submissions coalesce onto one in-flight job.
func TestSubmitCoalescesInflight(t *testing.T) {
	c := newTestCore(t, Config{Workers: 1})

	release := make(chan struct{})
	first, _, err := c.Submit("k", "", blockingCell("k", release), latchchar.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	second, cached, err := c.Submit("k", "", blockingCell("k", release), latchchar.Options{}, false)
	if err != nil || cached {
		t.Fatalf("second submit: cached=%v err=%v", cached, err)
	}
	if second != first {
		t.Error("identical submission did not coalesce onto the in-flight job")
	}
	if st := first.Status(); st.Coalesced != 1 {
		t.Errorf("coalesced = %d", st.Coalesced)
	}
	close(release)
	<-first.Done()
	// Failed jobs must not populate the result cache.
	if _, ok := c.results.Get("k"); ok {
		t.Error("failed job cached")
	}
}

// A draining core rejects with ReasonDraining (mapped to 503 by transports).
func TestSubmitWhileDraining(t *testing.T) {
	c := newTestCore(t, Config{Workers: 1})
	c.Close()
	_, _, err := c.Submit("x", "", blockingCell("x", make(chan struct{})), latchchar.Options{}, false)
	var se *SubmitError
	if !errors.As(err, &se) || se.Reason != ReasonDraining {
		t.Fatalf("submit while draining: %v", err)
	}
	if se.HTTPStatus() != http.StatusServiceUnavailable {
		t.Errorf("draining HTTPStatus = %d, want 503", se.HTTPStatus())
	}
}

// Mock mode must produce terminal done jobs with the canned contour after
// roughly the configured service time — the substrate of the cluster smoke
// and load tests.
func TestMockJobMode(t *testing.T) {
	c := newTestCore(t, Config{Workers: 2, MockJobTime: 10 * time.Millisecond})
	cell, err := latchchar.CellByName("tspc")
	if err != nil {
		t.Fatal(err)
	}
	j, cached, err := c.Submit("mock-key", "", cell, latchchar.Options{}, false)
	if err != nil || cached {
		t.Fatalf("submit: cached=%v err=%v", cached, err)
	}
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("mock job never finished")
	}
	st := j.Status()
	if st.State != serveclient.StateDone {
		t.Fatalf("state %q (error %q)", st.State, st.Error)
	}
	if st.Result == nil || len(st.Result.Contour) != 3 {
		t.Fatalf("mock result = %+v", st.Result)
	}
	if st.RunMS < 5 {
		t.Errorf("mock job ran in %.2fms, want >= the configured service time", st.RunMS)
	}
}

// TestFinishedJobsReleaseTheirRings runs 256 sequential mock jobs, fewer
// than the record bound, so every record is kept. A finished job's flight
// recorder is released once its dump is written, so the live heap must grow
// by less than a tenth of one default ring per job; keeping the rings grows
// it by a whole ring (1.31 MB) per job.
func TestFinishedJobsReleaseTheirRings(t *testing.T) {
	const jobs = 256
	c := newTestCore(t, Config{Workers: 1, MockJobTime: time.Microsecond})
	cell, err := latchchar.CellByName("tspc")
	if err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	for i := 0; i < jobs; i++ {
		j, _, err := c.Submit(fmt.Sprintf("ring-%d", i), "", cell, latchchar.Options{}, true)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
	}
	ring := float64(obs.DefaultRecorderCapacity) * float64(unsafe.Sizeof(obs.Event{}))
	perJob := (float64(liveHeap()) - float64(before)) / jobs
	t.Logf("live heap grew %.0f bytes per finished job", perJob)
	if perJob >= ring/10 {
		t.Errorf("live heap grew %.0f bytes per finished job, want under a tenth of a %.0f-byte ring", perJob, ring)
	}
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestWorkerHeapFlatPastTheRecordBound runs sequential mock jobs through a
// core with the default record bound until it keeps MaxJobs records, then
// 2,000 more: each new record evicts the oldest, so the live heap must stay
// flat, and every finished record keeps its replay history at its length,
// not at the capacity append doubling left, so clipping every kept history
// again frees nothing.
func TestWorkerHeapFlatPastTheRecordBound(t *testing.T) {
	const more = 2000
	c := newTestCore(t, Config{Workers: 1, MockJobTime: time.Microsecond,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	cell, err := latchchar.CellByName("tspc")
	if err != nil {
		t.Fatal(err)
	}
	run := func(from, n int) {
		for i := from; i < from+n; i++ {
			j, _, err := c.Submit(fmt.Sprintf("flat-%d", i), "", cell, latchchar.Options{}, true)
			if err != nil {
				t.Fatal(err)
			}
			<-j.Done()
		}
	}
	bound := c.Cfg().MaxJobs
	run(0, bound)
	atBound := liveHeap()
	run(bound, more)
	kept := liveHeap()
	grew := float64(kept) - float64(atBound)
	t.Logf("live heap %.0f KB at the bound of %d records, then grew %.0f bytes over %d more jobs",
		float64(atBound)/1024, bound, grew, more)
	if perJob := grew / more; perJob >= 64 {
		t.Errorf("live heap grew %.0f bytes per job past the record bound, want it flat (under 64)", perJob)
	}
	c.mu.Lock()
	records := len(c.jobs)
	for _, j := range c.jobs {
		j.mu.Lock()
		if j.hist.Len() == 0 {
			t.Errorf("record %s kept no events", j.id)
		}
		j.hist.Clip()
		j.mu.Unlock()
	}
	c.mu.Unlock()
	// A history at its length keeps only the allocator's size-class
	// rounding, which clipping it again keeps too.
	if freed := (float64(kept) - float64(liveHeap())) / float64(records); freed >= 16 {
		t.Errorf("clipping the %d kept histories again freed %.0f bytes each, want them kept at length", records, freed)
	}
}

// TestColdRecordsStaySmall holds the live heap a finished serve-like record
// keeps — the job, its result and its replay history — to 11 KB. It runs 50
// cold jobs as the serve benchmark sends them (TSPC at fresh Monte-Carlo
// corners, 20 points, 8-lane blocks, no result cache) on one worker, then
// frees every record: the heap the records held is what the collection
// after that returns.
func TestColdRecordsStaySmall(t *testing.T) {
	const jobs, limit = 50, 11000 // bytes
	c := newTestCore(t, Config{Workers: 1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	corners, err := latchchar.MCDraws(latchchar.DefaultProcess(), latchchar.MCOptions{Samples: jobs, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range corners {
		raw, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		req := &serveclient.CharacterizeRequest{Cell: "tspc", Process: raw, NoCache: true,
			Options: serveclient.OptionsRequest{Points: 20, Block: 8}}
		cell, opts, key, err := Resolve(req)
		if err != nil {
			t.Fatal(err)
		}
		j, _, err := c.Submit(key, "", cell, opts, req.NoCache)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		if st := j.Status(); st.State != serveclient.StateDone {
			t.Fatalf("cold job %d: %s (%s)", i, st.State, st.Error)
		}
	}
	kept := liveHeap()
	c.mu.Lock()
	records, events := len(c.jobs), 0
	for _, j := range c.jobs {
		j.mu.Lock()
		events += j.hist.Len()
		j.mu.Unlock()
	}
	c.jobs, c.order = map[string]*Job{}, nil
	c.results = sched.NewLRU[string, *Job](max(c.cfg.ResultCacheSize, 0))
	c.mu.Unlock()
	perRecord := (float64(kept) - float64(liveHeap())) / float64(records)
	t.Logf("%d finished records held %.0f bytes each (%.1f events per record)",
		records, perRecord, float64(events)/float64(records))
	if records != jobs {
		t.Fatalf("core kept %d records, want %d", records, jobs)
	}
	if perRecord > limit {
		t.Errorf("a finished cold record holds %.0f bytes of live heap, want at most %d", perRecord, limit)
	}
}

// TestFinishedRecordsDropTheirRun checks that a finished record — single,
// Monte-Carlo or batch — keeps its replay history and renders its cell's
// name, but holds no reference to its closed run nor to the inputs only
// the run read: the resolved cell, the options and the Monte-Carlo flow.
func TestFinishedRecordsDropTheirRun(t *testing.T) {
	c := newTestCore(t, Config{Workers: 1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	cell := latchchar.TSPCCell(latchchar.DefaultProcess(), latchchar.DefaultTiming())
	opts := latchchar.Options{Points: 4}
	single, _, err := c.Submit("single", "", cell, opts, true)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(p latchchar.Process) *latchchar.Cell { return latchchar.TSPCCell(p, latchchar.DefaultTiming()) }
	mc, _, err := c.SubmitMC("mc", "", mk, latchchar.DefaultProcess(), latchchar.MCOptions{Samples: 2, Characterize: opts}, true)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := c.SubmitBatch([]latchchar.Job{{Cell: cell, Opts: opts}, {Cell: cell, Opts: opts}}, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Job{single, mc, batch} {
		<-j.Done()
		st := j.Status()
		if st.State != serveclient.StateDone {
			t.Fatalf("job %s: %s (%s)", j.id, st.State, st.Error)
		}
		if j != batch && (st.Result == nil || st.Result.Cell != cell.Name) {
			t.Errorf("finished job %s renders cell %+v, want %q", j.id, st.Result, cell.Name)
		}
		j.mu.Lock()
		if j.run != nil {
			t.Errorf("finished job %s keeps its run", j.id)
		}
		if j.cell != nil || j.opts != nil || j.mc != nil {
			t.Errorf("finished job %s keeps its inputs: cell %v, options %v, Monte-Carlo flow %v", j.id, j.cell != nil, j.opts != nil, j.mc != nil)
		}
		for i := range j.batch {
			if j.batch[i].Opts.Obs != nil {
				t.Errorf("finished batch %s keeps its run in item %d", j.id, i)
			}
		}
		if j.hist.Len() == 0 {
			t.Errorf("finished job %s kept no events", j.id)
		}
		j.mu.Unlock()
	}
}

// TestReplayEqualsTheRunsEvents holds every event a client gets from a job's
// history, while it runs and once it has finished, to the event the job's
// run emitted, field for field.
func TestReplayEqualsTheRunsEvents(t *testing.T) {
	c := newTestCore(t, Config{Workers: 1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	release := make(chan struct{})
	blocker, _, err := c.Submit("blocker", "", blockingCell("blocker", release), latchchar.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	cell := latchchar.TSPCCell(latchchar.DefaultProcess(), latchchar.DefaultTiming())
	j, _, err := c.Submit("replay", "corr-replay", cell, latchchar.Options{Points: 20, Block: 8}, true)
	if err != nil {
		t.Fatal(err)
	}
	// The worker holds the blocker, so j is queued and its run has emitted
	// nothing its subscribers see.
	var mu sync.Mutex
	var emitted []obs.Event
	j.run.Subscribe(func(e obs.Event) {
		mu.Lock()
		emitted = append(emitted, e)
		mu.Unlock()
	})
	close(release)
	<-blocker.Done()
	// Subscribe while the job runs: the history so far, then live events.
	var live []obs.Event
	for live == nil {
		history, ch, cancel := j.Subscribe(1024)
		if len(history) == 0 {
			cancel()
			runtime.Gosched()
			continue
		}
		<-j.Done()
		cancel()
		live = history
		for len(ch) > 0 {
			live = append(live, <-ch)
		}
	}
	finished, _, cancel := j.Subscribe(0)
	cancel()
	mu.Lock()
	defer mu.Unlock()
	if len(emitted) == 0 || emitted[len(emitted)-1].Kind != obs.KindRunEnd {
		t.Fatalf("run emitted %d events, not ending in run_end", len(emitted))
	}
	if err := obs.Validate(finished); err != nil {
		t.Errorf("finished job's replay: %v", err)
	}
	for name, got := range map[string][]obs.Event{"running": live, "finished": finished} {
		if len(got) != len(emitted) {
			t.Errorf("%s job's replay has %d events, the run emitted %d", name, len(got), len(emitted))
			continue
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], emitted[i]) {
				t.Errorf("%s job's replay event %d = %+v, the run emitted %+v", name, i, got[i], emitted[i])
				break
			}
		}
	}
}

// TestEveryConsumerGetsOneRunBegin runs a tspc job with its flight recorder
// (a sink, then the replay capture's subscription) and one with the
// recorder disabled (the capture alone), each watched by a live subscriber
// that attaches while the job is queued: the recorder, the replay history,
// the live stream and the finished job's replay each start with the run's
// run_begin, and hold no other.
func TestEveryConsumerGetsOneRunBegin(t *testing.T) {
	check := func(what string, got []obs.Event) {
		t.Helper()
		begins := 0
		for _, e := range got {
			if e.Kind == obs.KindRunBegin {
				begins++
			}
		}
		if len(got) == 0 || got[0].Kind != obs.KindRunBegin || begins != 1 || got[0].Corr != "corr-begin" {
			t.Errorf("%s: %d events, %d run_begin; want exactly one, first, with the job's correlation ID", what, len(got), begins)
		}
	}
	cell := latchchar.TSPCCell(latchchar.DefaultProcess(), latchchar.DefaultTiming())
	for _, size := range []int{0, -1} {
		name := fmt.Sprintf("FlightRecorderSize %d", size)
		c := newTestCore(t, Config{Workers: 1, FlightRecorderSize: size, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
		release := make(chan struct{})
		blocker, _, err := c.Submit("blocker", "", blockingCell("blocker", release), latchchar.Options{}, false)
		if err != nil {
			t.Fatal(err)
		}
		j, _, err := c.Submit("begin", "corr-begin", cell, latchchar.Options{Points: 3}, true)
		if err != nil {
			t.Fatal(err)
		}
		if (j.rec == nil) != (size < 0) {
			t.Fatalf("%s: recorder present = %v", name, j.rec != nil)
		}
		if j.rec != nil {
			recorded, _ := j.rec.Snapshot()
			check(name+": queued job's recorder", recorded)
		}
		live, ch, cancel := j.Subscribe(1024)
		check(name+": queued job's history", live)
		close(release)
		<-blocker.Done()
		<-j.Done()
		cancel()
		for len(ch) > 0 {
			live = append(live, <-ch)
		}
		if st := j.Status(); st.State != serveclient.StateDone {
			t.Fatalf("%s: job %s: %s", name, st.State, st.Error)
		}
		check(name+": live stream", live)
		replay, _, cancel := j.Subscribe(0)
		cancel()
		check(name+": finished job's replay", replay)
		if err := obs.Validate(replay); err != nil {
			t.Errorf("%s: finished job's replay: %v", name, err)
		}
		if !reflect.DeepEqual(replay, live) {
			t.Errorf("%s: the replay's %d events differ from the live stream's %d", name, len(replay), len(live))
		}
	}
}
