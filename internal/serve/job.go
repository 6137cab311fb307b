package serve

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"customfit/internal/dse"
	"customfit/internal/obs"
)

// State is a job's lifecycle phase. Transitions are
// queued → running → {done, failed, cancelled}, with cancellation also
// possible straight from queued.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state admits no further transitions.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobStatus is the wire form of a job, returned by GET /v1/jobs/{id}
// and DELETE /v1/jobs/{id}.
type JobStatus struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State State  `json:"state"`
	// Error is set for failed and cancelled jobs.
	Error string `json:"error,omitempty"`
	// Progress is the latest progress snapshot (explore/fit jobs).
	Progress json.RawMessage `json:"progress,omitempty"`
	// Result is the job's payload once done: the compile/simulate
	// response object, the exploration's full persisted-results JSON, or
	// the fit selection.
	Result json.RawMessage `json:"result,omitempty"`
	// Spans carries the job's telemetry spans when the submit carried a
	// traceparent (the dist coordinator grafts them under its own shard
	// span for one fleet-wide trace). Populated only on terminal jobs.
	Spans []obs.WireSpan `json:"spans,omitempty"`
}

// Job is one queued unit of work. All mutable fields are guarded by mu;
// the identity fields are written once before the job is published.
type Job struct {
	ID   string
	Kind string

	// run does the work; its ctx is cancelled by DELETE and by server
	// shutdown past the drain deadline. It receives the job itself so
	// long runners can record progress. The worker that takes the job
	// off the queue takes run off the job: the closure holds the parsed
	// request, which a retained job has no use for.
	run    func(ctx context.Context, j *Job) (json.RawMessage, error)
	ctx    context.Context
	cancel context.CancelFunc
	// done is closed by finish: what a held poll waits on.
	done chan struct{}
	// coalesceKey indexes the server's in-flight map ("" = never
	// coalesced).
	coalesceKey string
	created     time.Time
	// remote is the submitter's propagated span context (zero when the
	// request carried no traceparent). When valid, the job's spans are
	// recorded under the remote trace and returned in JobStatus.Spans.
	remote obs.SpanContext

	mu     sync.Mutex
	state  State
	errMsg string
	result json.RawMessage
	// progress is the latest snapshot (hasProgress: there is one), and
	// progressJSON its encoding, made when somebody first looks: an
	// exploration reports per evaluation, to mostly nobody.
	progress     dse.ProgressInfo
	hasProgress  bool
	progressJSON json.RawMessage
	spans        []obs.WireSpan
}

// Status snapshots the job for the wire.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:       j.ID,
		Kind:     j.Kind,
		State:    j.state,
		Error:    j.errMsg,
		Progress: j.progressData(),
		Result:   j.result,
		Spans:    j.spans,
	}
}

// setSpans stores the job's captured telemetry spans. Must run before
// finish so the terminal status carries them.
func (j *Job) setSpans(spans []obs.WireSpan) {
	j.mu.Lock()
	j.spans = spans
	j.mu.Unlock()
}

// State returns the current lifecycle phase.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// startRunning moves queued → running. It returns false when the job
// was cancelled while waiting in the queue, in which case the worker
// must skip it.
func (j *Job) startRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	return true
}

// progressData returns the latest snapshot's encoding (nil before the
// first), encoding it if nobody has looked since it was set. The caller
// holds j.mu.
func (j *Job) progressData() json.RawMessage {
	if j.progressJSON == nil && j.hasProgress {
		// A snapshot that does not encode is one nobody sees.
		j.progressJSON, _ = json.Marshal(j.progress)
	}
	return j.progressJSON
}

// setProgress records a progress snapshot; a poll encodes it.
func (j *Job) setProgress(p dse.ProgressInfo) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		j.progress, j.hasProgress, j.progressJSON = p, true, nil
	}
}

// finish moves the job to a terminal state and wakes every held poll by
// closing done.
func (j *Job) finish(state State, result json.RawMessage, errMsg string) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.result = result
	j.errMsg = errMsg
	close(j.done)
	j.mu.Unlock()
	if j.cancel != nil {
		j.cancel()
	}
}

// requestCancel cancels the job: immediately terminal when still
// queued, via context when running (the worker then finishes it as
// cancelled). Reports whether the job was still live.
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	switch state {
	case StateQueued:
		j.finish(StateCancelled, nil, "cancelled before starting")
		return true
	case StateRunning:
		j.cancel()
		return true
	default:
		return false
	}
}
