package jobcore

import (
	"sort"
	"sync"
	"sync/atomic"

	"latchchar/internal/obs"
)

// Metrics holds the core-level request and job counters exposed on /metrics
// and /statusz. Transports increment Requests; the core owns the rest.
type Metrics struct {
	Requests         atomic.Int64
	JobsDone         atomic.Int64
	JobsFailed       atomic.Int64
	JobsCanceled     atomic.Int64
	Coalesced        atomic.Int64
	ResultCacheHits  atomic.Int64
	RejectedFull     atomic.Int64
	RejectedDraining atomic.Int64
}

// obsAgg accumulates per-job obs.Run summaries into a core-lifetime view:
// every obs counter plus per-phase count and wall-clock. All known counter
// names are pre-seeded at zero so scrapers see a stable metric set from the
// first request — including the cluster_* counters, which a worker never
// increments but must still expose so fleet-wide dashboards sum one stable
// vocabulary.
type obsAgg struct {
	mu       sync.Mutex
	counters map[string]int64
	phases   map[string]obs.PhaseStat
	hists    map[string]*obs.Hist
}

func (a *obsAgg) init() {
	a.counters = map[string]int64{
		obs.CtrTransients:             0,
		obs.CtrTransientsGrad:         0,
		obs.CtrSteps:                  0,
		obs.CtrNewtonIters:            0,
		obs.CtrLUFactor:               0,
		obs.CtrLURefactor:             0,
		obs.CtrSensSolves:             0,
		obs.CtrResumedSteps:           0,
		obs.CtrPoints:                 0,
		obs.CtrStepRejects:            0,
		obs.CtrWarmSeeds:              0,
		obs.CtrCalReused:              0,
		obs.CtrRuntimeSamples:         0,
		obs.CtrBlockRuns:              0,
		obs.CtrBlockPeelOffs:          0,
		obs.CtrBlockSharedSteps:       0,
		obs.CtrMCWarmSeeds:            0,
		obs.CtrMCSimsSaved:            0,
		obs.CtrMCCVApplied:            0,
		obs.CtrClusterForwards:        0,
		obs.CtrClusterForwardRetries:  0,
		obs.CtrClusterForwardFailures: 0,
		obs.CtrClusterRehashes:        0,
		obs.CtrClusterStreamEvents:    0,
	}
	a.phases = map[string]obs.PhaseStat{}
	a.hists = map[string]*obs.Hist{}
}

func (a *obsAgg) fold(s obs.Summary) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for name, v := range s.Counters {
		a.counters[name] += v
	}
	for _, p := range s.Phases {
		agg := a.phases[p.Name]
		agg.Name = p.Name
		agg.Count += p.Count
		agg.Total += p.Total
		a.phases[p.Name] = agg
	}
	for _, hs := range s.Hists {
		h := a.hists[hs.Name]
		if h == nil {
			h = &obs.Hist{}
			a.hists[hs.Name] = h
		}
		h.AddSnapshot(hs.Hist)
	}
}

// summary renders the aggregate as an obs.Summary for tests and embedders.
func (a *obsAgg) summary() obs.Summary {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := obs.Summary{Counters: make(map[string]int64, len(a.counters))}
	for name, v := range a.counters {
		s.Counters[name] = v
	}
	for _, p := range a.phases {
		s.Phases = append(s.Phases, p)
	}
	for name, h := range a.hists {
		s.Hists = append(s.Hists, obs.HistStat{Name: name, Hist: h.Snapshot()})
	}
	sort.Slice(s.Phases, func(i, j int) bool { return s.Phases[i].Name < s.Phases[j].Name })
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
	return s
}
