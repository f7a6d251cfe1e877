package obs

import (
	"math"
	"runtime"
	"runtime/metrics"
)

// RuntimeStats is one runtime self-telemetry sample: scheduler and memory
// pressure indicators that make saturation visible before it turns into
// queue-full 429s.
type RuntimeStats struct {
	Goroutines int    // runtime.NumGoroutine
	HeapBytes  uint64 // live heap (MemStats.HeapAlloc)
	GCPauseNs  int64  // cumulative STW pause (MemStats.PauseTotalNs)
	SchedP99Ns int64  // p99 goroutine scheduling latency since process start
}

// ReadRuntimeStats samples the Go runtime. It allocates (ReadMemStats,
// runtime/metrics buckets) and takes a brief STW, so callers sample on a
// timer — never per-event or per-step.
func ReadRuntimeStats() RuntimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeStats{
		Goroutines: runtime.NumGoroutine(),
		HeapBytes:  ms.HeapAlloc,
		GCPauseNs:  int64(ms.PauseTotalNs),
		SchedP99Ns: schedLatencyP99Ns(),
	}
}

// schedLatencyP99Ns reads the runtime's goroutine scheduling-latency
// histogram and returns its 99th percentile in nanoseconds (0 when the
// metric is unavailable or empty).
func schedLatencyP99Ns() int64 {
	sample := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	return histQuantileNs(sample[0].Value.Float64Histogram(), 0.99)
}

// histQuantileNs computes a quantile of a runtime/metrics histogram, in
// nanoseconds, by walking the cumulative counts and reporting the upper
// bound of the bucket that crosses the target rank.
func histQuantileNs(h *metrics.Float64Histogram, q float64) int64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			// Buckets has len(Counts)+1 boundaries; bucket i spans
			// Buckets[i]..Buckets[i+1]. The last bucket's upper bound is
			// +Inf — fall back to its finite lower edge.
			upper := h.Buckets[i+1]
			if math.IsInf(upper, 1) {
				upper = h.Buckets[i]
			}
			if math.IsInf(upper, -1) {
				return 0
			}
			return int64(upper * 1e9)
		}
	}
	return 0
}

// Runtime emits one runtime self-telemetry sample into the event stream and
// bumps the runtime_samples counter. Nil-safe and free on a disabled run.
func (r *Run) Runtime(st RuntimeStats) {
	if r == nil {
		return
	}
	r.Count(CtrRuntimeSamples, 1)
	r.c.emit(&Event{
		Kind:       KindRuntime,
		Goroutines: st.Goroutines, HeapBytes: st.HeapBytes,
		GCPauseNs: st.GCPauseNs, SchedP99Ns: st.SchedP99Ns,
	})
}
