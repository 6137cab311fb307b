// Package serve is the cfp exploration service: an HTTP/JSON front end
// over the custom-fit toolchain (compile, simulate, explore, fit)
// backed by a bounded worker pool and job queue.
//
// Every POST /v1/{compile,simulate,explore,fit} submits a job and
// returns 202 with its id; clients follow it with GET /v1/jobs/{id},
// which carries the latest progress snapshot and, with ?wait=, holds
// the answer until the job ends. DELETE /v1/jobs/{id} cancels —
// promptly, because the whole evaluation stack underneath is
// context-threaded (see dse.ErrCancelled).
//
// Identical explore/fit requests coalesce onto one in-flight job (the
// pipeline is deterministic, so equal requests have equal answers), and
// concurrent distinct explorations still share work through the
// arch-signature memo and the optional persistent evaluation cache.
// When a cache is attached it is additionally served to the fleet:
// GET /v1/cache/{shard}/{key} and batched POST /v1/cache/{shard}
// (put/has) make this process a cache peer other workers read through
// and write behind to (see internal/fleetcache and docs/DISTRIBUTED.md),
// with fingerprint-gated admission.
// GET /healthz reports liveness (503 while draining); GET /metrics
// answers the obs collector's counters, gauges and span totals as
// Prometheus text exposition.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"customfit/internal/dse"
	"customfit/internal/evcache"
	"customfit/internal/fleetcache"
	"customfit/internal/obs"
	"customfit/internal/sched"
)

// Options configures a Server. The zero value serves with two job
// workers, a queue of 16, no persistent cache and the default metrics
// collector.
type Options struct {
	// Workers is the number of jobs run concurrently (default 2). Each
	// explore job additionally fans out EvalParallelism compile workers,
	// so total CPU use is roughly Workers × EvalParallelism.
	Workers int
	// QueueDepth bounds the submit queue (default 16); submits beyond it
	// are rejected with 503 rather than buffered without bound.
	QueueDepth int
	// EvalParallelism is the per-job compile worker count
	// (0 = GOMAXPROCS).
	EvalParallelism int
	// Cache is a pre-opened persistent evaluation cache shared by every
	// job (optional; caller keeps ownership and closes it after
	// Shutdown). When set it is also served to the fleet over
	// GET/POST /v1/cache/{shard} (fleetcache.Handler); without one those
	// paths are not mounted, which a read-through peer sees as a miss.
	Cache *evcache.Cache
	// MaxJobs bounds retained terminal jobs (default 256); the oldest
	// finished jobs are evicted first. Live jobs are never evicted.
	MaxJobs int
	// Collector backs /metrics. Nil uses the installed obs collector,
	// installing a fresh one if none is active (a server wants its
	// counters even when the operator asked for no -metrics file).
	Collector *obs.Collector
	// spanLimit bounds the spans returned per traced job (default
	// 16384); overflow is dropped and counted on serve.spans_dropped.
	spanLimit int
}

// Server is the exploration service. Create with New, expose via
// Handler, stop with Shutdown.
type Server struct {
	opts      Options
	mux       *http.ServeMux
	collector *obs.Collector
	started   time.Time

	queue     chan *Job
	wg        sync.WaitGroup
	baseCtx   context.Context
	baseStop  context.CancelFunc
	closeOnce sync.Once

	mu       sync.Mutex
	draining bool
	jobs     map[string]*Job
	order    []string // insertion order, for eviction
	inflight map[string]*Job
	nextID   int64
}

// New starts a Server's worker pool. Callers must eventually Shutdown.
func New(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 16
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 256
	}
	if opts.spanLimit <= 0 {
		opts.spanLimit = 16384
	}
	col := opts.Collector
	if col == nil {
		col = obs.Active()
	}
	if col == nil {
		col = obs.NewCollector()
		obs.Install(col)
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		opts:      opts,
		collector: col,
		started:   time.Now(),
		queue:     make(chan *Job, opts.QueueDepth),
		baseCtx:   ctx,
		baseStop:  stop,
		jobs:      make(map[string]*Job),
		inflight:  make(map[string]*Job),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/compile", s.handleCompile)
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("POST /v1/explore", s.handleExplore)
	s.mux.HandleFunc("POST /v1/fit", s.handleFit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if opts.Cache != nil {
		s.mux.Handle("/v1/cache/", fleetcache.Handler(opts.Cache))
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the service's HTTP handler (mountable under httptest
// or an http.Server).
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains: new submits are rejected (and /healthz turns 503),
// queued and running jobs run to completion, workers exit. If ctx
// expires first, the remaining jobs are cancelled (they finish as
// "cancelled" promptly — the stack is context-threaded) and Shutdown
// returns ctx.Err() after they do.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	obs.Log().LogAttrs(ctx, slog.LevelInfo, "draining")
	s.closeOnce.Do(func() { close(s.queue) })
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseStop()
		<-done
		return ctx.Err()
	}
}

// worker drains the queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job and classifies its outcome. Cancellation
// (anything wrapping dse.ErrCancelled or the context errors) is
// recorded as "cancelled", not "failed" — operators must be able to
// tell aborted work from genuinely broken requests.
//
// The job's serve.job span continues the submitter's trace when the
// request carried a traceparent, and the span rides j's context so the
// whole evaluation stack underneath (dse.explore, evaluate, compile,
// sched, sim) parents under it. After the job ends, its span subtree is
// removed from the collector — keeping a long-lived server's event
// buffer bounded — and, for traced jobs, returned in JobStatus.Spans.
func (s *Server) runJob(j *Job) {
	run := j.run
	j.run = nil
	if !j.startRunning() {
		s.clearInflight(j)
		return
	}
	start := time.Now()
	sp := obs.StartSpanIn(j.remote, "serve.job")
	sp.Str("kind", j.Kind).Str("id", j.ID)
	result, err := run(obs.ContextWithSpan(j.ctx, sp), j)
	sp.End()
	evs := sp.TakeSubtree()
	if j.remote.Valid() && len(evs) > 0 {
		if len(evs) > s.opts.spanLimit {
			obs.GetCounter("serve.spans_dropped").Add(int64(len(evs) - s.opts.spanLimit))
			evs = evs[:s.opts.spanLimit]
		}
		j.setSpans(obs.ToWire(evs))
	}
	s.clearInflight(j)
	var state State
	switch {
	case err == nil:
		state = StateDone
		j.finish(StateDone, sized(result), "")
		obs.GetCounter("serve.jobs_done").Inc()
	case errors.Is(err, dse.ErrCancelled), errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		state = StateCancelled
		j.finish(StateCancelled, nil, err.Error())
		obs.GetCounter("serve.jobs_cancelled").Inc()
	default:
		state = StateFailed
		j.finish(StateFailed, nil, err.Error())
		obs.GetCounter("serve.jobs_failed").Inc()
	}
	if lg := obs.Log(); lg.Enabled(j.ctx, slog.LevelInfo) {
		attrs := []slog.Attr{
			slog.String("job", j.ID), slog.String("kind", j.Kind), slog.String("state", string(state)),
			slog.Duration("dur", time.Since(start)),
			slog.String("trace", sp.Context().Trace.String()),
		}
		if err != nil {
			attrs = append(attrs, slog.String("err", err.Error()))
		}
		lg.LogAttrs(j.ctx, slog.LevelInfo, "job finished", attrs...)
	}
}

// sized returns b in a buffer of its own length when the one it came in
// has more than a sixteenth to spare: a runner sizes its buffer before
// it knows the length, and a retained job keeps its result until
// MaxJobs newer ones have come.
func sized(b []byte) []byte {
	if cap(b)-len(b) <= len(b)/16 {
		return b
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// clearInflight drops the job from the coalescing index once it can no
// longer absorb newcomers.
func (s *Server) clearInflight(j *Job) {
	if j.coalesceKey == "" {
		return
	}
	s.mu.Lock()
	if s.inflight[j.coalesceKey] == j {
		delete(s.inflight, j.coalesceKey)
	}
	s.mu.Unlock()
}

var (
	errDraining  = errors.New("serve: shutting down, not accepting jobs")
	errQueueFull = errors.New("serve: job queue full")
)

// submit creates (or coalesces onto) a job. coalesceKey must be a
// canonical encoding of everything that affects the job's result —
// identical keys share one execution and one job id. remote is the
// submitter's propagated span context (zero = untraced); a request that
// coalesces onto an in-flight job keeps that job's original trace — the
// newcomer's traceparent is dropped, since the work runs once.
func (s *Server) submit(kind, coalesceKey string, remote obs.SpanContext, run func(ctx context.Context, j *Job) (json.RawMessage, error)) (j *Job, coalesced bool, err error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, false, errDraining
	}
	if coalesceKey != "" {
		if live, ok := s.inflight[coalesceKey]; ok {
			s.mu.Unlock()
			obs.GetCounter("serve.jobs_coalesced").Inc()
			return live, true, nil
		}
	}
	s.nextID++
	id := fmt.Sprintf("j%d", s.nextID)
	ctx, cancel := context.WithCancel(s.baseCtx)
	j = &Job{
		ID:          id,
		Kind:        kind,
		run:         run,
		ctx:         ctx,
		cancel:      cancel,
		done:        make(chan struct{}),
		coalesceKey: coalesceKey,
		created:     time.Now(),
		remote:      remote,
		state:       StateQueued,
	}
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		cancel()
		obs.GetCounter("serve.queue_rejects").Inc()
		obs.Log().LogAttrs(context.Background(), slog.LevelWarn, "queue full, job rejected",
			slog.String("kind", kind))
		return nil, false, errQueueFull
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	if coalesceKey != "" {
		s.inflight[coalesceKey] = j
	}
	s.evictLocked()
	s.mu.Unlock()
	obs.GetCounter("serve.jobs_submitted").Inc()
	obs.Log().LogAttrs(context.Background(), slog.LevelDebug, "job accepted",
		slog.String("job", id), slog.String("kind", kind),
		slog.String("trace", remote.Trace.String()))
	return j, false, nil
}

// evictLocked trims the oldest terminal jobs beyond MaxJobs.
func (s *Server) evictLocked() {
	if len(s.jobs) <= s.opts.MaxJobs {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if j == nil {
			continue
		}
		if len(s.jobs) > s.opts.MaxJobs && j.State().Terminal() {
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// job looks up a job by id.
func (s *Server) job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// SubmitResponse acknowledges a submit.
type SubmitResponse struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Coalesced marks that an identical request was already in flight
	// and this id refers to its job.
	Coalesced bool `json:"coalesced,omitempty"`
}

// remoteContext extracts the submitter's span context from the
// traceparent request header (zero when absent or malformed — an
// unparseable header degrades to an untraced job, never an error).
func remoteContext(r *http.Request) obs.SpanContext {
	sc, _ := obs.ParseTraceParent(r.Header.Get("traceparent"))
	return sc
}

// respondSubmit runs the common tail of every submit handler.
func (s *Server) respondSubmit(w http.ResponseWriter, remote obs.SpanContext, kind, key string, run func(ctx context.Context, j *Job) (json.RawMessage, error)) {
	j, coalesced, err := s.submit(kind, key, remote, run)
	switch {
	case errors.Is(err, errDraining), errors.Is(err, errQueueFull):
		writeErr(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: j.ID, State: j.State(), Coalesced: coalesced})
}

// maxPollWait caps how long GET /v1/jobs/{id}?wait= holds an answer:
// under the idle timeouts of the proxies a fleet may sit behind.
const maxPollWait = 30 * time.Second

// parseWait reads the wait parameter of a job poll: absent or empty is
// no hold, a duration in time.ParseDuration's syntax holds that long at
// most, above maxPollWait is maxPollWait. Unparsable or negative is an
// error.
func parseWait(v string) (time.Duration, error) {
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("bad wait %q: want a duration such as 200ms", v)
	}
	return min(d, maxPollWait), nil
}

// handleJobGet answers a poll. With ?wait=<duration> it holds the answer
// until the job is terminal, the duration is over or the client is gone:
// a coordinator is told when its shard ends instead of asking on a timer.
// A drain does not wait on held polls — every job is terminal before
// Shutdown returns, and that is what they wait for.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	wait, err := parseWait(r.URL.Query().Get("wait"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if wait > 0 && !j.State().Terminal() {
		obs.GetCounter("serve.polls_held").Inc()
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-j.done:
		case <-timer.C:
		case <-r.Context().Done():
			return
		}
	}
	writeStatus(w, j.Status())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	if j.requestCancel() {
		obs.GetCounter("serve.cancel_requests").Inc()
	}
	writeStatus(w, j.Status())
}

// HealthResponse is the GET /healthz body. Beyond liveness it carries
// what a distributed coordinator (internal/dist) needs for capacity
// discovery and fleet admission: the job-worker capacity and the
// backend fingerprint (a coordinator refuses workers whose fingerprint
// differs from its own — mixed backends would break the determinism
// guarantee).
type HealthResponse struct {
	Status string `json:"status"` // "ok" or "draining"
	Jobs   int    `json:"jobs"`
	Queued int    `json:"queued"`
	// Running is the in-flight job count (jobs currently executing).
	// Together with Queued it lets a coordinator or load balancer prefer
	// idle workers: Running+Queued is the worker's present load.
	Running int `json:"running"`
	// Workers is the concurrent-job capacity (Options.Workers).
	Workers int `json:"workers"`
	// Fingerprint is sched.Fingerprint(): the backend's code-generation
	// identity.
	Fingerprint string `json:"fingerprint"`
	// Schema is SchemaVersion, the newest explore-request schema this
	// server understands: a coordinator admits only a worker that
	// advertises its own. Servers before SchemaMeasured leave it out
	// (0).
	Schema int `json:"schema,omitempty"`
}

// jobStateCounts tallies retained jobs by lifecycle state.
func (s *Server) jobStateCounts() map[State]int {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	counts := make(map[State]int, 5)
	for _, j := range jobs {
		counts[j.State()]++
	}
	return counts
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	n := len(s.jobs)
	s.mu.Unlock()
	h := HealthResponse{
		Status:      "ok",
		Jobs:        n,
		Queued:      len(s.queue),
		Running:     s.jobStateCounts()[StateRunning],
		Workers:     s.opts.Workers,
		Fingerprint: sched.Fingerprint(),
		Schema:      SchemaVersion,
	}
	code := http.StatusOK
	if draining {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// setLiveGauges refreshes the collector's live server-state gauges so
// every scrape (JSON or Prometheus) sees current values rather than
// whatever the last exploration left behind.
func (s *Server) setLiveGauges() {
	counts := s.jobStateCounts()
	c := s.collector
	c.SetGauge("serve.queue_depth", float64(len(s.queue)))
	c.SetGauge("serve.worker_capacity", float64(s.opts.Workers))
	c.SetGauge("serve.jobs_state_queued", float64(counts[StateQueued]))
	c.SetGauge("serve.jobs_state_running", float64(counts[StateRunning]))
	c.SetGauge("serve.jobs_state_done", float64(counts[StateDone]))
	c.SetGauge("serve.jobs_state_failed", float64(counts[StateFailed]))
	c.SetGauge("serve.jobs_state_cancelled", float64(counts[StateCancelled]))
	c.SetGauge("serve.uptime_seconds", time.Since(s.started).Seconds())
	if s.opts.Cache != nil {
		c.SetGauge("serve.cache_resident_entries", float64(s.opts.Cache.Resident()))
	}
}

// handleMetrics serves the collector as Prometheus text exposition
// (version 0.0.4), with live queue and job gauges: the bytes a tool's
// -metrics FILE holds, and what a stock Prometheus scrapes.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.setLiveGauges()
	w.Header().Set("Content-Type", obs.PrometheusContentType)
	w.WriteHeader(http.StatusOK)
	// Too late for a status code on a write error; the truncated body
	// says enough.
	_ = s.collector.WritePrometheus(w)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// statusParts returns json.Marshal(st) and a newline, in pieces. The
// small members go through encoding/json; the result — which only this
// package's own runners write, compact and escaped as Marshal leaves it
// — is handed on as it stands, where Marshal would parse and copy it
// once more. It is the one encoder of a job's status: polls and cancels
// both send these bytes.
func statusParts(st JobStatus) (net.Buffers, error) {
	result, spans := st.Result, st.Spans
	st.Result, st.Spans = nil, nil
	head, err := json.Marshal(st)
	if err != nil {
		return nil, err
	}
	parts := net.Buffers{head[:len(head)-1]} // reopened: the "}" goes last
	if len(result) > 0 {
		parts = append(parts, []byte(resultKey), result)
	}
	if len(spans) > 0 {
		sp, err := json.Marshal(spans)
		if err != nil {
			return nil, err
		}
		parts = append(parts, []byte(spansKey), sp)
	}
	return append(parts, []byte("}\n")), nil
}

// writeStatus answers 200 with st, as writeJSON would spell it, under a
// Content-Length.
func writeStatus(w http.ResponseWriter, st JobStatus) {
	parts, err := statusParts(st)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(http.StatusOK)
	_, _ = parts.WriteTo(w) // an error is a client that went away
}

// ErrorResponse is the body of every non-2xx JSON reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, ErrorResponse{Error: msg})
}
