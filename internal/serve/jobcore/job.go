package jobcore

import (
	"errors"
	"sync"
	"time"

	"latchchar"
	"latchchar/internal/obs"
	"latchchar/serveclient"
)

// Job states — aliases of the wire constants so the core and the transports
// agree by construction.
const (
	stateQueued   = serveclient.StateQueued
	stateRunning  = serveclient.StateRunning
	stateDone     = serveclient.StateDone
	stateFailed   = serveclient.StateFailed
	stateCanceled = serveclient.StateCanceled
)

// maxJobEvents bounds the per-job replay history; live subscribers keep
// receiving past the cap, only the replay history stops growing.
const maxJobEvents = 16384

// Job is one queued/running/finished characterization (or batch) with its
// observability run and replay history. The done channel closes after the
// final state and the run's run_end event are in place, so waiters and
// event streamers never observe a half-finished record.
type Job struct {
	id   string
	key  string // coalescing key; "" for batch jobs (never coalesced)
	corr string // correlation ID of the request that created the job

	// name is the cell's name, which Status renders. What only the run
	// reads — the resolved cell and options, or the Monte-Carlo flow — is
	// dropped when the run ends, so a finished record keeps none of it.
	name  string
	cell  *latchchar.Cell
	opts  *latchchar.Options
	mc    *mcFlow         // non-nil selects the Monte-Carlo flow
	batch []latchchar.Job // non-nil selects the batch flow

	run     *obs.Run      // nil once the job is finished
	rec     *obs.Recorder // flight recorder; nil when disabled, released at job end
	created time.Time
	done    chan struct{}

	mu        sync.Mutex
	state     string
	started   time.Time
	finished  time.Time
	coalesced int
	result    *latchchar.Result
	mcRes     *latchchar.MCResult
	batchRes  []latchchar.JobResult
	err       error
	hist      obs.History // the replay history, packed
	subs      map[int]chan obs.Event
	nextSub   int
}

// mcFlow is a Monte-Carlo job's input: the cell maker over the process
// axes, the nominal process and the MC options.
type mcFlow struct {
	mk      func(latchchar.Process) *latchchar.Cell
	nominal latchchar.Process
	opts    latchchar.MCOptions
}

// newJob creates a queued job with a live observability run capturing every
// event (including progress at progressInterval cadence) into the job's
// replay history and fanning it out to subscribers. Every event is stamped
// with the request's correlation ID, and a flight recorder rides along as a
// sink (recorderSize < 0 disables it) for post-mortem dumps.
func newJob(id, key, corr string, progressInterval time.Duration, recorderSize int) *Job {
	j := &Job{
		id:      id,
		key:     key,
		corr:    corr,
		created: time.Now(),
		state:   stateQueued,
		done:    make(chan struct{}),
		subs:    make(map[int]chan obs.Event),
	}
	// The empty progress callback turns on progress *events* (the stream
	// consumers render those); the callback itself has nothing to do.
	j.run = obs.New(
		obs.WithProgress(func(obs.Progress) {}, progressInterval),
		obs.WithCorr(corr),
	)
	if recorderSize >= 0 {
		j.rec = obs.NewRecorder(recorderSize)
		j.run.AddSink(j.rec)
	}
	j.run.Subscribe(j.capture)
	return j
}

// ID returns the job's record id ("j00000042").
func (j *Job) ID() string { return j.id }

// Corr returns the correlation ID of the creating request.
func (j *Job) Corr() string { return j.corr }

// Done returns the channel closed once the job record is final.
func (j *Job) Done() <-chan struct{} { return j.done }

// capture receives one obs event under the collector lock: append to the
// bounded replay history and fan out non-blocking (slow readers drop events
// rather than stalling the solvers).
func (j *Job) capture(e obs.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.hist.Len() < maxJobEvents {
		j.hist.Append(&e)
	}
	for _, ch := range j.subs {
		select {
		case ch <- e:
		default:
		}
	}
}

// Subscribe returns a copy of the event history plus a channel carrying
// subsequent events, and a cancel function. The copy and the registration
// happen atomically, so no event is missed or duplicated at the boundary.
func (j *Job) Subscribe(buf int) (history []obs.Event, ch chan obs.Event, cancel func()) {
	ch = make(chan obs.Event, buf)
	j.mu.Lock()
	history = j.hist.Events()
	id := j.nextSub
	j.nextSub++
	j.subs[id] = ch
	j.mu.Unlock()
	return history, ch, func() {
		j.mu.Lock()
		delete(j.subs, id)
		j.mu.Unlock()
	}
}

func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = stateRunning
	j.started = time.Now()
	j.mu.Unlock()
}

// complete records a single-job outcome. Cancellation (drain or job
// timeout) is distinguished from failure so clients can tell a partial
// contour from a broken setup.
func (j *Job) complete(res *latchchar.Result, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	j.result, j.err = res, err
	switch {
	case err == nil:
		j.state = stateDone
	case errors.Is(err, latchchar.ErrCanceled):
		j.state = stateCanceled
	default:
		j.state = stateFailed
	}
}

// completeMC records a Monte-Carlo outcome. The nominal result doubles as
// the partial-contour carrier so cancellation renders the same way as for
// single jobs.
func (j *Job) completeMC(mc *latchchar.MCResult, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	j.mcRes, j.err = mc, err
	if mc != nil {
		j.result = mc.Nominal
	}
	switch {
	case err == nil:
		j.state = stateDone
	case errors.Is(err, latchchar.ErrCanceled):
		j.state = stateCanceled
	default:
		j.state = stateFailed
	}
}

// completeBatch records a batch outcome; the job fails only if every item
// failed.
func (j *Job) completeBatch(res []latchchar.JobResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	j.batchRes = res
	j.state = stateDone
	allFailed := len(res) > 0
	for _, r := range res {
		if r.Err == nil {
			allFailed = false
			break
		}
	}
	if allFailed {
		j.state = stateFailed
		j.err = errors.Join(func() []error {
			errs := make([]error, 0, len(res))
			for _, r := range res {
				errs = append(errs, r.Err)
			}
			return errs
		}()...)
	}
}

// Status snapshots the job as its wire representation.
func (j *Job) Status() serveclient.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := serveclient.JobStatus{
		ID:        j.id,
		State:     j.state,
		Corr:      j.corr,
		Coalesced: j.coalesced,
	}
	if !j.started.IsZero() {
		st.QueuedMS = DurMS(j.started.Sub(j.created))
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		st.RunMS = DurMS(end.Sub(j.started))
	}
	if j.err != nil {
		st.Error = j.err.Error()
		var ce *latchchar.CanceledError
		if errors.As(j.err, &ce) && j.result != nil && j.result.Contour != nil && len(j.result.Contour.Points) > 0 {
			st.Partial = true
		}
	}
	if j.batch != nil {
		st.Results = make([]serveclient.BatchItemJSON, len(j.batchRes))
		for i, r := range j.batchRes {
			item := serveclient.BatchItemJSON{
				Name:              r.Name,
				Index:             r.Index,
				WarmStarted:       r.WarmStarted,
				CalibrationReused: r.CalibrationReused,
				Result:            RenderResult(r.Name, r.Result),
			}
			if r.Err != nil {
				item.Error = r.Err.Error()
			}
			st.Results[i] = item
		}
		return st
	}
	if j.result != nil && (j.err == nil || st.Partial) {
		if j.mcRes != nil {
			st.Result = RenderMCResult(j.name, j.mcRes)
		} else {
			st.Result = RenderResult(j.name, j.result)
		}
	}
	return st
}
