package serve

import (
	"fmt"
	"io"
	"sort"
)

// WriteMetric writes one unlabeled sample of type typ ("counter" or
// "gauge") with its HELP and TYPE lines, in the Prometheus text exposition
// format (v0.0.4).
func WriteMetric(w io.Writer, typ, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, typ, name, v)
}

// writeMetrics renders the Prometheus text exposition format (v0.0.4) by
// hand: serve-level request counters, engine calibration-cache stats, the
// folded obs counters, and per-phase count/seconds. The counter/gauge data
// lives in the job core; this file is only the text rendering.
func (s *Server) writeMetrics(w io.Writer) {
	met := s.core.Counters()
	WriteMetric(w, "counter", "latchchard_requests_total", "Characterize and batch requests received.", float64(met.Requests.Load()))
	WriteMetric(w, "counter", "latchchard_jobs_done_total", "Jobs finished successfully.", float64(met.JobsDone.Load()))
	WriteMetric(w, "counter", "latchchard_jobs_failed_total", "Jobs finished with an error.", float64(met.JobsFailed.Load()))
	WriteMetric(w, "counter", "latchchard_jobs_canceled_total", "Jobs canceled by drain or timeout.", float64(met.JobsCanceled.Load()))
	WriteMetric(w, "counter", "latchchard_requests_coalesced_total", "Requests attached to an identical in-flight job.", float64(met.Coalesced.Load()))
	WriteMetric(w, "counter", "latchchard_result_cache_hits_total", "Requests served from the result cache.", float64(met.ResultCacheHits.Load()))
	WriteMetric(w, "counter", "latchchard_rejected_queue_full_total", "Requests rejected with 429 because the job queue was full.", float64(met.RejectedFull.Load()))
	WriteMetric(w, "counter", "latchchard_rejected_draining_total", "Requests rejected with 503 while draining.", float64(met.RejectedDraining.Load()))

	snap := s.core.Snapshot()
	WriteMetric(w, "gauge", "latchchard_queue_depth", "Jobs waiting in the bounded queue.", float64(snap.QueueDepth))
	WriteMetric(w, "gauge", "latchchard_inflight_jobs", "Distinct coalescing keys currently queued or running.", float64(snap.InflightKeys))
	drainVal := 0.0
	if snap.Draining {
		drainVal = 1
	}
	WriteMetric(w, "gauge", "latchchard_draining", "1 while the server refuses new work.", drainVal)

	WriteMetric(w, "counter", "latchchard_calibration_cache_hits_total", "Engine calibration LRU hits.", float64(snap.CalibrationCacheHits))
	WriteMetric(w, "counter", "latchchard_calibration_cache_misses_total", "Engine calibration LRU misses.", float64(snap.CalibrationCacheMisses))

	sum := s.core.Summary()
	names := make([]string, 0, len(sum.Counters))
	for name := range sum.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		WriteMetric(w, "counter", "latchchard_obs_"+name+"_total",
			"Observability counter "+name+" summed over finished jobs.",
			float64(sum.Counters[name]))
	}
	for _, p := range sum.Phases {
		WriteMetric(w, "counter", "latchchard_phase_"+p.Name+"_count_total",
			"Completed "+p.Name+" spans over finished jobs.", float64(p.Count))
		WriteMetric(w, "counter", "latchchard_phase_"+p.Name+"_seconds_total",
			"Wall-clock seconds in "+p.Name+" spans over finished jobs.",
			p.Total.Seconds())
	}

	// Iteration-count histograms (Newton/corrector) as native
	// Prometheus histograms: obs buckets are exact small integers 1..16 plus
	// overflow, rendered as cumulative le bounds.
	for _, hs := range sum.Hists {
		name := "latchchard_obs_" + hs.Name
		fmt.Fprintf(w, "# HELP %s Distribution of %s over finished jobs.\n# TYPE %s histogram\n",
			name, hs.Name, name)
		var cum int64
		for i := 0; i < len(hs.Hist.Buckets)-1; i++ {
			cum += hs.Hist.Buckets[i]
			fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, i+1, cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, hs.Hist.Count)
		fmt.Fprintf(w, "%s_sum %d\n", name, hs.Hist.Sum)
		fmt.Fprintf(w, "%s_count %d\n", name, hs.Hist.Count)
	}

	// Per-endpoint request-duration histogram.
	s.rt.Latency().WritePrometheus(w, "latchchard_request_seconds")

	// Runtime self-telemetry (last sampler reading).
	rt, _ := s.core.RuntimeStats()
	WriteMetric(w, "gauge", "latchchard_goroutines", "Goroutines at the last runtime sample.", float64(rt.Goroutines))
	WriteMetric(w, "gauge", "latchchard_heap_bytes", "Live heap bytes at the last runtime sample.", float64(rt.HeapBytes))
	WriteMetric(w, "counter", "latchchard_gc_pause_seconds_total", "Cumulative GC stop-the-world pause.", float64(rt.GCPauseNs)/1e9)
	WriteMetric(w, "gauge", "latchchard_sched_latency_p99_seconds", "p99 goroutine scheduling latency since process start.", float64(rt.SchedP99Ns)/1e9)
}
