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

// Event is one server-sent event on a job's stream: "progress" carries
// a snapshot, "done" the terminal JobStatus. ID is the job-scoped SSE
// event id (monotonically increasing), so a client that reconnects with
// Last-Event-ID can tell replayed state from new state.
type Event struct {
	Name string
	ID   int64
	Data json.RawMessage
}

// JobStatus is the wire form of a job, returned by GET /v1/jobs/{id}
// and as the "done" SSE event.
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
	// long runners can publish progress. The worker that takes the job
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
	subs         map[chan Event]struct{}
	// seq numbers the job's SSE events; progressSeq/doneSeq remember
	// which ids the latest progress snapshot and the terminal event
	// carry, so reconnects with Last-Event-ID skip already-seen replays
	// (the done event is always re-sent — it must never be missed).
	seq         int64
	progressSeq int64
	doneSeq     int64
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
// finish so the terminal status (polled or streamed) carries them.
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

// setProgress records a progress snapshot and publishes it to the
// subscribers there are. Publishes are lossy (a slow subscriber drops
// intermediate snapshots, never the terminal event).
func (j *Job) setProgress(p dse.ProgressInfo) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.progress, j.hasProgress, j.progressJSON = p, true, nil
	j.seq++
	j.progressSeq = j.seq
	if len(j.subs) == 0 {
		return
	}
	// Send under the lock: every send and close of a subscriber channel
	// holds j.mu, so finish can never close a channel mid-send.
	ev := Event{Name: "progress", ID: j.seq, Data: j.progressData()}
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// finish moves the job to a terminal state and wakes every subscriber
// by closing its channel (the SSE handler then re-reads Status and
// emits the "done" event, so the terminal notification can never be
// dropped by a full buffer) and every held poll by closing done.
func (j *Job) finish(state State, result json.RawMessage, errMsg string) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.result = result
	j.errMsg = errMsg
	j.seq++
	j.doneSeq = j.seq
	for ch := range j.subs {
		close(ch)
	}
	j.subs = nil
	close(j.done)
	j.mu.Unlock()
	if j.cancel != nil {
		j.cancel()
	}
}

// subscribe registers an SSE listener. The returned channel delivers
// progress events and is closed once the job reaches a terminal state
// (including before the call — a subscriber to a finished job gets an
// immediately closed channel). afterID is the reconnecting client's
// Last-Event-ID (0 for a fresh connection): the stored progress
// snapshot is replayed only when it is newer, so reconnects never see
// state they already consumed. unsubscribe is idempotent.
func (j *Job) subscribe(afterID int64) (ch chan Event, unsubscribe func()) {
	ch = make(chan Event, 8)
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	if j.subs == nil {
		j.subs = make(map[chan Event]struct{})
	}
	j.subs[ch] = struct{}{}
	if data := j.progressData(); data != nil && j.progressSeq > afterID {
		ch <- Event{Name: "progress", ID: j.progressSeq, Data: data}
	}
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
		}
		j.mu.Unlock()
	}
}

// doneEventID returns the SSE id of the terminal event (meaningful once
// the job is terminal; monotonically the largest id the job assigns).
func (j *Job) doneEventID() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.doneSeq
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
