package jobcore

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"latchchar"
	"latchchar/internal/obs"
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
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
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

// TestWorkerHeapFlatPastTheRecordBound runs sequential mock jobs through a
// core with the default record bound until it keeps MaxJobs records, then
// 2,000 more: each new record evicts the oldest, so the live heap must stay
// flat, and every finished record keeps its event log at its length, not
// at the capacity append-doubling left.
func TestWorkerHeapFlatPastTheRecordBound(t *testing.T) {
	const more = 2000
	c := newTestCore(t, Config{Workers: 1, MockJobTime: time.Microsecond,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	cell, err := latchchar.CellByName("tspc")
	if err != nil {
		t.Fatal(err)
	}
	var last *Job
	run := func(from, n int) {
		for i := from; i < from+n; i++ {
			j, _, err := c.Submit(fmt.Sprintf("flat-%d", i), "", cell, latchchar.Options{}, true)
			if err != nil {
				t.Fatal(err)
			}
			<-j.Done()
			last = j
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	bound := c.Cfg().MaxJobs
	run(0, bound)
	atBound := liveHeap()
	run(bound, more)
	grew := float64(liveHeap()) - float64(atBound)
	t.Logf("live heap %.0f KB at the bound of %d records, then grew %.0f bytes over %d more jobs",
		float64(atBound)/1024, bound, grew, more)
	if perJob := grew / more; perJob >= 64 {
		t.Errorf("live heap grew %.0f bytes per job past the record bound, want it flat (under 64)", perJob)
	}
	last.mu.Lock()
	n, spare := len(last.events), cap(last.events)-len(last.events)
	last.mu.Unlock()
	// A copy at its length keeps only the allocator's size-class rounding,
	// at most an eighth of the allocation.
	if n == 0 || 8*spare > n+spare {
		t.Errorf("a finished record keeps %d events in room for %d", n, n+spare)
	}
}
