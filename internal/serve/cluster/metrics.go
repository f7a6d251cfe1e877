package cluster

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"latchchar/internal/serve"
	"latchchar/internal/serve/jobcore"
	"latchchar/serveclient"
)

// Fleet observability: /v1/statusz renders the ring, per-worker health, and
// an aggregate of the latest poll snapshots; /v1/metrics exposes the
// coordinator's own counters (latchcoord_*) plus the same fleet aggregate so
// one scrape of the coordinator answers "what is the cluster doing".

func (co *Coordinator) handleStatusz(w http.ResponseWriter, r *http.Request) {
	co.json(w, http.StatusOK, co.clusterStatus(time.Now()))
}

func (co *Coordinator) clusterStatus(now time.Time) serveclient.ClusterStatusZ {
	co.mu.Lock()
	ws := make([]*worker, 0, len(co.workers))
	for _, wk := range co.workers {
		ws = append(ws, wk)
	}
	ringSlots := co.ring.slots()
	draining := co.draining
	co.mu.Unlock()

	st := serveclient.ClusterStatusZ{
		UptimeMS: jobcore.DurMS(now.Sub(co.started)),
		Draining: draining,

		WorkersConfigured: len(ws),
		RingSlots:         ringSlots,
		TrackedJobs:       co.trackedJobs(),

		Requests:        co.met.requests.Load(),
		Forwards:        co.met.forwards.Load(),
		ForwardRetries:  co.met.forwardRetries.Load(),
		ForwardFailures: co.met.forwardFailures.Load(),
		Rehashes:        co.met.rehashes.Load(),
		StreamEvents:    co.met.streamEvents.Load(),

		Latency: co.rt.Latency().WindowQuantiles(now),
	}
	for _, wk := range ws {
		snap := wk.snapshot(now)
		st.WorkerList = append(st.WorkerList, snap)
		switch snap.State {
		case serveclient.WorkerUp:
			st.WorkersUp++
		case serveclient.WorkerDraining:
			st.WorkersDraining++
		default:
			st.WorkersDown++
		}
		if snap.State != serveclient.WorkerDown && snap.StatusZ != nil {
			agg := &st.Aggregate
			agg.QueueDepth += snap.StatusZ.QueueDepth
			agg.InflightKeys += snap.StatusZ.InflightKeys
			agg.Requests += snap.StatusZ.Requests
			agg.JobsDone += snap.StatusZ.JobsDone
			agg.JobsFailed += snap.StatusZ.JobsFailed
			agg.JobsCanceled += snap.StatusZ.JobsCanceled
			agg.Coalesced += snap.StatusZ.Coalesced
			agg.ResultCacheHits += snap.StatusZ.ResultCacheHits
		}
	}
	sort.Slice(st.WorkerList, func(i, j int) bool { return st.WorkerList[i].Addr < st.WorkerList[j].Addr })
	return st
}

func (co *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	co.writeMetrics(w)
}

func (co *Coordinator) writeMetrics(w io.Writer) {
	serve.WriteMetric(w, "counter", "latchcoord_requests_total", "Characterize and batch requests received by the coordinator.",
		float64(co.met.requests.Load()))
	serve.WriteMetric(w, "counter", "latchcoord_forwards_total", "Job forwards attempted against workers.",
		float64(co.met.forwards.Load()))
	serve.WriteMetric(w, "counter", "latchcoord_forward_retries_total", "Forward attempts beyond a key's ring owner.",
		float64(co.met.forwardRetries.Load()))
	serve.WriteMetric(w, "counter", "latchcoord_forward_failures_total", "Forwards that exhausted the retry budget.",
		float64(co.met.forwardFailures.Load()))
	serve.WriteMetric(w, "counter", "latchcoord_rehashes_total", "Ring rebuilds after membership changes.",
		float64(co.met.rehashes.Load()))
	serve.WriteMetric(w, "counter", "latchcoord_stream_events_total", "NDJSON events proxied to stream subscribers.",
		float64(co.met.streamEvents.Load()))

	st := co.clusterStatus(time.Now())
	drainVal := 0.0
	if st.Draining {
		drainVal = 1
	}
	serve.WriteMetric(w, "gauge", "latchcoord_draining", "1 while the coordinator refuses new work.", drainVal)
	serve.WriteMetric(w, "gauge", "latchcoord_workers_configured", "Configured worker count.", float64(st.WorkersConfigured))
	serve.WriteMetric(w, "gauge", "latchcoord_workers_up", "Workers currently accepting jobs.", float64(st.WorkersUp))
	serve.WriteMetric(w, "gauge", "latchcoord_workers_draining", "Workers currently draining.", float64(st.WorkersDraining))
	serve.WriteMetric(w, "gauge", "latchcoord_workers_down", "Workers currently unreachable.", float64(st.WorkersDown))
	serve.WriteMetric(w, "gauge", "latchcoord_ring_slots", "Virtual nodes on the hash ring.", float64(st.RingSlots))
	serve.WriteMetric(w, "gauge", "latchcoord_tracked_jobs", "Forwarded-job records retained.", float64(st.TrackedJobs))

	// Per-worker health gauges, one labeled series per configured worker.
	fmt.Fprintf(w, "# HELP latchcoord_worker_up Worker health: 1 up, 0.5 draining, 0 down.\n# TYPE latchcoord_worker_up gauge\n")
	for _, wk := range st.WorkerList {
		v := 0.0
		switch wk.State {
		case serveclient.WorkerUp:
			v = 1
		case serveclient.WorkerDraining:
			v = 0.5
		}
		fmt.Fprintf(w, "latchcoord_worker_up{worker=%q} %g\n", wk.Addr, v)
	}
	fmt.Fprintf(w, "# HELP latchcoord_worker_in_flight Forwards currently in flight per worker.\n# TYPE latchcoord_worker_in_flight gauge\n")
	for _, wk := range st.WorkerList {
		fmt.Fprintf(w, "latchcoord_worker_in_flight{worker=%q} %d\n", wk.Addr, wk.InFlight)
	}

	// Fleet aggregate from the latest health-poll snapshots. These are sums
	// of worker counters, so they render as counters even though a worker
	// restart can step one backwards (same caveat as any federated sum).
	agg := st.Aggregate
	serve.WriteMetric(w, "gauge", "latchcoord_fleet_queue_depth", "Queued jobs summed over reachable workers.", float64(agg.QueueDepth))
	serve.WriteMetric(w, "gauge", "latchcoord_fleet_inflight_keys", "Distinct in-flight coalescing keys summed over reachable workers.", float64(agg.InflightKeys))
	serve.WriteMetric(w, "counter", "latchcoord_fleet_requests_total", "Requests summed over reachable workers.", float64(agg.Requests))
	serve.WriteMetric(w, "counter", "latchcoord_fleet_jobs_done_total", "Jobs finished successfully, summed over reachable workers.", float64(agg.JobsDone))
	serve.WriteMetric(w, "counter", "latchcoord_fleet_jobs_failed_total", "Jobs failed, summed over reachable workers.", float64(agg.JobsFailed))
	serve.WriteMetric(w, "counter", "latchcoord_fleet_jobs_canceled_total", "Jobs canceled, summed over reachable workers.", float64(agg.JobsCanceled))
	serve.WriteMetric(w, "counter", "latchcoord_fleet_coalesced_total", "Coalesced requests summed over reachable workers.", float64(agg.Coalesced))
	serve.WriteMetric(w, "counter", "latchcoord_fleet_result_cache_hits_total", "Result-cache hits summed over reachable workers.", float64(agg.ResultCacheHits))

	// The coordinator's own per-endpoint request-duration histogram.
	co.rt.Latency().WritePrometheus(w, "latchcoord_request_seconds")
}
