// Package dist is the distributed exploration coordinator: it shards a
// design-space exploration across a fleet of cfp-serve workers over
// their HTTP/JSON job API and merges the shard results into a
// dse.Results bit-identical to a single local run.
//
// Determinism is the design center. The grid is resolved by the same
// function as a local run's (machine.Grid), shards are whole
// backend-signature classes (dse.SigKey) so per-class memoization — and
// with it the paper's Table-3 logical runs accounting — reproduces
// per-shard. Workers measure and the coordinator prices: every shard
// is submitted unpriced (serve.ExploreRequest.Unpriced), so a worker
// evaluates no out-of-grid baseline and sends no cost, time or speedup,
// and the coordinator prices the merged grid itself with the local
// run's one pricing step (dse.Results.Price). A worker too old to know
// the member prices its shard anyway; the merge subtracts its
// out-of-grid baseline work (Stats.BaselineRuns) and ignores its prices,
// so a mixed fleet merges to the same Results. Per-cell measurements
// are bit-identical because the whole pipeline is deterministic.
//
// Robustness is first-class: workers are admitted via /healthz (which
// also publishes capacity and the backend fingerprint — a
// fingerprint-mismatched worker is refused), failed shard attempts
// retry with exponential backoff and jitter on the surviving fleet,
// a worker that keeps failing is taken out of rotation, stragglers are
// hedged (the slowest shard is duplicated on an idle worker, first
// result wins, the loser is cancelled with DELETE), and cancelling the
// coordinator's context drains the fleet. See docs/DISTRIBUTED.md.
//
// Telemetry: counters dist.shards, dist.retries, dist.hedges,
// dist.worker_failures, dist.status_fallbacks; spans dist.explore (root) and dist.shard (one
// per attempt, attributed with bench, arch count and worker).
package dist

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"customfit/internal/bench"
	"customfit/internal/dse"
	"customfit/internal/machine"
	"customfit/internal/obs"
	"customfit/internal/sched"
	"customfit/internal/serve"
)

// Options configures a distributed exploration. Workers is required;
// everything else defaults to the local-run equivalents.
type Options struct {
	// Workers are the base URLs of the cfp-serve nodes ("http://host:port").
	Workers []string
	// Benchmarks restricts the suite (nil = the paper's full suite).
	Benchmarks []*bench.Benchmark
	// Archs restricts the space (nil = machine.FullSpace()).
	Archs []machine.Arch
	// Ops, when non-nil, crosses the grid with the custom-op catalog
	// exactly like a local run (core.ExploreOptions.Ops): every machine
	// is explored op-free and with the full catalog enabled. Shards of
	// op-enabled architectures carry the catalog and an explicit request
	// schema on the wire; op-unaware workers refuse them (409) and the
	// admission fingerprint gate keeps them out of the fleet entirely.
	Ops *machine.OpSet
	// Sample > 1 keeps every Nth machine, baseline always retained —
	// identical to a local run's thinning.
	Sample int
	// Width is the reference workload width (default 96).
	Width int
	// maxRetries bounds per-shard redispatch attempts (default 4);
	// exceeding it fails the whole exploration.
	maxRetries int
	// RetryBackoff is the base backoff before a shard retry (default
	// 500ms), doubled per retry with ±50% jitter.
	RetryBackoff time.Duration
	// hedgeAfter is how long a shard may run with the rest of the fleet
	// idle before it is duplicated on another worker (default 30s;
	// negative disables hedging).
	hedgeAfter time.Duration
	// PollInterval is the longest a worker is asked to hold a job-status
	// poll before answering that the shard still runs (a worker that
	// holds answers the moment it ends), and the polling period against
	// a worker that does not hold (default 200ms).
	PollInterval time.Duration
	// Client overrides the HTTP client (tests; default http.DefaultClient).
	Client *http.Client
	// CacheMode "off" disables evaluation caching fleet-wide: every
	// shard request carries it, so workers run cold even when they have
	// their own caches attached. The value is the -cache flag's, which
	// cli.Tool.Start has validated to be exactly "on" or "off".
	CacheMode string
}

// shardsPerWorker scales the shard count: the grid is cut into roughly
// fleet-capacity × shardsPerWorker units, small enough to rebalance
// around a dead worker, large enough to amortize per-shard overhead.
const shardsPerWorker = 3

func (o *Options) withDefaults() Options {
	out := *o
	if out.Width <= 0 {
		out.Width = 96
	}
	if out.maxRetries <= 0 {
		out.maxRetries = 4
	}
	if out.RetryBackoff <= 0 {
		out.RetryBackoff = 500 * time.Millisecond
	}
	if out.hedgeAfter == 0 {
		out.hedgeAfter = 30 * time.Second
	}
	if out.PollInterval <= 0 {
		out.PollInterval = 200 * time.Millisecond
	}
	if out.Client == nil {
		out.Client = http.DefaultClient
	}
	return out
}

// workerState is the coordinator's view of one fleet member.
type workerState struct {
	url      string
	capacity int
	inflight int
	// load is the worker's reported queued+running job count at
	// admission: the fleet is ordered idle-first, so dispatch prefers
	// workers with no pre-existing traffic.
	load int
	// fails counts consecutive failed attempts; two in a row take the
	// worker out of rotation (dist.worker_failures).
	fails int
	dead  bool
}

// attempt is one dispatch of one unit to one worker. jobID and aborted
// are written by different goroutines (the attempt's own and the
// coordinator's) under mu.
type attempt struct {
	id     int
	u      *unit
	worker *workerState
	start  time.Time

	mu      sync.Mutex
	jobID   string
	aborted bool
}

func (a *attempt) setJob(id string) {
	a.mu.Lock()
	a.jobID = id
	a.mu.Unlock()
}

func (a *attempt) job() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.jobID
}

// abort marks the attempt coordinator-cancelled and returns the job to
// DELETE ("" when none was submitted yet).
func (a *attempt) abort() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.aborted = true
	return a.jobID
}

func (a *attempt) isAborted() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.aborted
}

// outcome is an attempt's terminal report into the coordinator loop.
type outcome struct {
	a   *attempt
	res *dse.Results
	err error
	// requeue re-enqueues a unit after its backoff (a is nil then).
	requeue *unit
}

// Explore runs the sharded exploration across opts.Workers and returns
// Results bit-identical (modulo wall-clock timing fields) to a local
// run with the same Benchmarks/Archs/Sample/Width. Cancelling ctx
// cancels every in-flight shard job on the fleet and returns an error
// wrapping dse.ErrCancelled.
func Explore(ctx context.Context, opts Options) (*dse.Results, error) {
	if len(opts.Workers) == 0 {
		return nil, fmt.Errorf("dist: no workers given")
	}
	o := opts.withDefaults()
	benches := o.Benchmarks
	if benches == nil {
		benches = bench.All()
	}
	if len(benches) == 0 {
		return nil, fmt.Errorf("dist: no benchmarks given")
	}
	if err := dse.DistinctBenchmarks(benches); err != nil {
		return nil, err
	}

	// The coordinator's grid always contains the baseline, so merge can
	// price every cell, and the one grid cell that owns the baseline is
	// counted once.
	grid := machine.Grid(o.Archs, o.Sample, o.Ops)
	opSet, err := gridOpSet(grid)
	if err != nil {
		return nil, err
	}

	sp := obs.StartSpanCtx(ctx, "dist.explore")
	defer sp.End()

	cl := &client{http: o.Client, poll: o.PollInterval}
	fleet, err := admitFleet(ctx, cl, o.Workers)
	if err != nil {
		return nil, err
	}
	capacity := 0
	for _, w := range fleet {
		capacity += w.capacity
	}
	units := partitionUnits(grid, benches, capacity*shardsPerWorker)
	obs.GetCounter("dist.shards").Add(int64(len(units)))
	sp.Int("workers", int64(len(fleet))).Int("shards", int64(len(units))).Int("archs", int64(len(grid)))
	obs.Log().LogAttrs(ctx, slog.LevelInfo, "distributed exploration starting",
		slog.Int("workers", len(fleet)), slog.Int("shards", len(units)),
		slog.Int("archs", len(grid)),
		slog.String("trace", sp.Context().Trace.String()))

	var opsWire []string
	if opSet != nil {
		opsWire = opSet.Wire()
	}
	c := &coordinator{
		opts:     o,
		client:   cl,
		fleet:    fleet,
		units:    units,
		grid:     grid,
		opsWire:  opsWire,
		benches:  benches,
		root:     sp,
		events:   make(chan outcome, len(units)+len(fleet)),
		loopDone: make(chan struct{}),
		cacheOff: o.CacheMode == "off",
	}
	return c.run(ctx)
}

// admitFleet health-checks every worker and refuses a fleet that cannot
// produce a correct run: an unreachable or draining worker is an error
// (the operator listed it explicitly), and so is a backend fingerprint
// differing from the coordinator's — mixed code generators would merge
// non-identical shards silently.
func admitFleet(ctx context.Context, cl *client, urls []string) ([]*workerState, error) {
	want := sched.Fingerprint()
	fleet := make([]*workerState, 0, len(urls))
	for _, raw := range urls {
		url := strings.TrimRight(raw, "/")
		h, err := cl.health(ctx, url)
		if err != nil {
			return nil, fmt.Errorf("dist: worker %s failed health check: %w", url, err)
		}
		if h.Fingerprint != want {
			return nil, fmt.Errorf("dist: worker %s backend fingerprint %q does not match coordinator %q; refusing (mixed backends break bit-identical merges)",
				url, h.Fingerprint, want)
		}
		capacity := h.Workers
		if capacity < 1 {
			capacity = 1
		}
		load := h.Queued + h.Running
		obs.Log().LogAttrs(ctx, slog.LevelDebug, "worker admitted",
			slog.String("worker", url), slog.Int("capacity", capacity),
			slog.Int("load", load))
		fleet = append(fleet, &workerState{url: url, capacity: capacity, load: load})
	}
	// Idle-first: dispatch picks the first free worker, so ordering the
	// fleet by reported load routes shards away from busy nodes. Stable,
	// so equally loaded workers keep the operator's listing order (and
	// the common all-idle fleet is ordered exactly as listed).
	sort.SliceStable(fleet, func(i, j int) bool { return fleet[i].load < fleet[j].load })
	return fleet, nil
}

// coordinator owns the dispatch loop. All unit/worker state is touched
// only from run's goroutine; attempts communicate through events.
type coordinator struct {
	opts    Options
	client  *client
	fleet   []*workerState
	units   []*unit
	grid    []machine.Arch
	benches []*bench.Benchmark
	// opsWire is the grid's shared custom-op catalog in wire form (nil
	// for op-free grids); shards whose tuples enable ops carry it.
	opsWire []string

	// root is the run's dist.explore span; every dist.shard span forks
	// from it, so the whole fleet's telemetry shares one trace.
	root *obs.Span

	events   chan outcome
	loopDone chan struct{}
	bg       sync.WaitGroup // shard attempts and background job cancellations
	rng      *rand.Rand

	nextAttempt int
	pending     []*unit
	doneUnits   int

	// cacheOff propagates -cache=off fleet-wide via ExploreRequest.Cache.
	cacheOff bool
}

func (c *coordinator) run(ctx context.Context) (*dse.Results, error) {
	start := time.Now()
	runCtx, stopRun := context.WithCancel(ctx)
	defer stopRun()
	c.rng = rand.New(rand.NewSource(1)) // jitter only; determinism of results never depends on it

	c.pending = append(c.pending, c.units...)

	tick := c.opts.hedgeAfter / 4
	if tick <= 0 || c.opts.hedgeAfter < 0 {
		tick = time.Second
	}
	if tick < c.opts.PollInterval {
		tick = c.opts.PollInterval
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()

	fail := func(err error) (*dse.Results, error) {
		stopRun()
		c.shutdown()
		return nil, err
	}

	for c.doneUnits < len(c.units) {
		if err := c.dispatch(runCtx); err != nil {
			return fail(err)
		}
		select {
		case oc := <-c.events:
			if err := c.handle(oc); err != nil {
				return fail(err)
			}
		case <-ticker.C:
			c.maybeHedge(runCtx)
		case <-ctx.Done():
			return fail(fmt.Errorf("%w: %w", dse.ErrCancelled, context.Cause(ctx)))
		}
	}
	stopRun()
	c.shutdown()
	return c.merge(start)
}

// shutdown ends the loop's side channels and reaps every outstanding
// job on the fleet (best effort, bounded wait) so an aborted or
// cancelled coordinator leaves no stray work running.
func (c *coordinator) shutdown() {
	close(c.loopDone)
	for _, u := range c.units {
		for _, a := range u.attempts {
			if id := a.abort(); id != "" {
				c.cancelJob(a.worker.url, id)
			}
		}
	}
	done := make(chan struct{})
	go func() {
		c.bg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
	}
}

// cancelJob DELETEs a job in the background.
func (c *coordinator) cancelJob(workerURL, jobID string) {
	c.bg.Add(1)
	go func() {
		defer c.bg.Done()
		c.client.cancel(workerURL, jobID)
	}()
}

// dispatch assigns pending units to free fleet slots (FIFO units,
// first free worker). A fully dead fleet is a hard error.
func (c *coordinator) dispatch(ctx context.Context) error {
	alive := false
	for _, w := range c.fleet {
		if !w.dead {
			alive = true
			break
		}
	}
	if !alive {
		return fmt.Errorf("dist: all %d workers failed", len(c.fleet))
	}
	for len(c.pending) > 0 {
		u := c.pending[0]
		w := c.freeWorker(nil)
		if w == nil {
			return nil
		}
		c.pending = c.pending[1:]
		c.launch(ctx, u, w)
	}
	return nil
}

// freeWorker returns the first alive worker with spare capacity,
// excluding `not` (hedges must land on a different machine than the
// attempt they duplicate).
func (c *coordinator) freeWorker(not *workerState) *workerState {
	for _, w := range c.fleet {
		if !w.dead && w != not && w.inflight < w.capacity {
			return w
		}
	}
	return nil
}

// launch starts one attempt of u on w. The attempt's dist.shard span
// forks from the run's dist.explore root, and its span context rides
// the explore request's traceparent header (runShard): the worker then
// records the job's spans into the same trace and ships them back with
// the result, where AdoptRemote grafts them under this shard span — one
// fleet, one trace. A disabled coordinator (no collector) sends no
// traceparent, so workers skip span capture entirely.
func (c *coordinator) launch(ctx context.Context, u *unit, w *workerState) {
	c.nextAttempt++
	a := &attempt{id: c.nextAttempt, u: u, worker: w, start: time.Now()}
	u.attempts[a.id] = a
	w.inflight++
	sp := c.root.Fork("dist.shard")
	sp.Str("bench", u.bench).Int("archs", int64(len(u.tuples))).
		Str("worker", w.url).Int("unit", int64(u.id))
	// Unpriced: merge prices the whole grid, so a worker sends only what
	// it measured. A worker that does not know the member prices as
	// before, and merge prices over it.
	req := serve.ExploreRequest{
		Benchmarks: []string{u.bench},
		Width:      c.opts.Width,
		Archs:      u.tuples,
		Unpriced:   true,
	}
	if c.cacheOff {
		req.Cache = "off"
	}
	// Only shards that actually enable ops carry the catalog and the
	// explicit schema — op-free shards stay byte-identical to the
	// 6-tuple era on the wire.
	for _, t := range u.tuples {
		if strings.Contains(t, " ops=") {
			req.Ops = c.opsWire
			req.Schema = serve.SchemaVersion
			break
		}
	}
	c.bg.Add(1)
	go func() {
		defer c.bg.Done()
		res, spans, err := c.client.runShard(ctx, a, req, sp)
		sp.AdoptRemote(spans)
		sp.End()
		select {
		case c.events <- outcome{a: a, res: res, err: err}:
		case <-c.loopDone:
		}
	}()
}

// handle takes one event of the loop: a unit due for retry, or an
// attempt's end. A result is checked against its unit before the unit is
// done; one that is not for the unit's machines fails the attempt like a
// dead worker would.
func (c *coordinator) handle(oc outcome) error {
	if oc.requeue != nil {
		c.pending = append(c.pending, oc.requeue)
		return nil
	}
	a, u, w := oc.a, oc.a.u, oc.a.worker
	w.inflight--
	delete(u.attempts, a.id)
	if oc.err == nil {
		oc.err = c.check(u, oc.res)
	}

	switch {
	case oc.err == nil:
		w.fails = 0
		if !u.done {
			u.done = true
			u.res = oc.res
			c.doneUnits++
			// First result wins: reap the losing hedge, if any.
			for _, loser := range u.attempts {
				if id := loser.abort(); id != "" {
					c.cancelJob(loser.worker.url, id)
				}
			}
		}
		return nil

	case errors.Is(oc.err, errAttemptAborted):
		// We cancelled it ourselves (hedge loser); nothing to do.
		return nil

	case isPermanent(oc.err):
		return fmt.Errorf("dist: shard %d (%s, %d archs): %w", u.id, u.bench, len(u.tuples), oc.err)
	}

	// Retryable failure: penalize the worker, then retry or hedge-absorb.
	obs.Log().LogAttrs(context.Background(), slog.LevelWarn, "shard attempt failed",
		slog.Int("shard", u.id), slog.String("bench", u.bench),
		slog.String("worker", w.url), slog.String("err", oc.err.Error()))
	if w.fails++; w.fails >= 2 && !w.dead {
		w.dead = true
		obs.GetCounter("dist.worker_failures").Inc()
		obs.Log().LogAttrs(context.Background(), slog.LevelWarn, "worker removed from rotation",
			slog.String("worker", w.url), slog.Int("consecutive_failures", w.fails))
	}
	if u.done || len(u.attempts) > 0 {
		// A sibling attempt already finished the unit or is still
		// running it; this failure costs nothing.
		return nil
	}
	u.retries++
	obs.GetCounter("dist.retries").Inc()
	if u.retries > c.opts.maxRetries {
		return fmt.Errorf("dist: shard %d (%s, %d archs) failed %d times, giving up: %w",
			u.id, u.bench, len(u.tuples), u.retries, oc.err)
	}
	obs.Log().LogAttrs(context.Background(), slog.LevelInfo, "shard retry scheduled",
		slog.Int("shard", u.id), slog.Int("retry", u.retries))
	// Exponential backoff with ±50% jitter, off the loop goroutine.
	delay := c.opts.RetryBackoff << (u.retries - 1)
	delay = time.Duration(float64(delay) * (0.5 + c.rng.Float64()))
	timer := time.NewTimer(delay)
	go func() {
		defer timer.Stop()
		select {
		case <-timer.C:
			select {
			case c.events <- outcome{requeue: u}:
			case <-c.loopDone:
			}
		case <-c.loopDone:
		}
	}()
	return nil
}

// check reports whether res is the shard u asked for: one evaluation
// per machine of the unit, in the unit's order, of the unit's benchmark.
// Nothing else in the document is trusted at merge, so a worker that
// answers for other machines or in another order is caught here.
func (c *coordinator) check(u *unit, res *dse.Results) error {
	evs := res.Eval[u.bench]
	if len(evs) != len(u.indices) {
		return fmt.Errorf("worker returned %d evaluations of %s for %d archs", len(evs), u.bench, len(u.indices))
	}
	for k, gi := range u.indices {
		if evs[k].Arch != c.grid[gi] || evs[k].Bench != u.bench {
			return fmt.Errorf("worker returned %s on %v as evaluation %d, want %s on %v",
				evs[k].Bench, evs[k].Arch, k, u.bench, c.grid[gi])
		}
	}
	return nil
}

// maybeHedge duplicates the longest-running lone shard onto an idle
// worker once the queue is drained: a straggler (slow or silently dying
// worker) must not hold the whole run hostage. One hedge per unit;
// first result wins and the loser is cancelled.
func (c *coordinator) maybeHedge(ctx context.Context) {
	if c.opts.hedgeAfter < 0 || len(c.pending) > 0 {
		return
	}
	var oldest *attempt
	for _, u := range c.units {
		if u.done || u.hedged || len(u.attempts) != 1 {
			continue
		}
		for _, a := range u.attempts {
			if time.Since(a.start) >= c.opts.hedgeAfter && (oldest == nil || a.start.Before(oldest.start)) {
				oldest = a
			}
		}
	}
	if oldest == nil {
		return
	}
	w := c.freeWorker(oldest.worker)
	if w == nil {
		return
	}
	oldest.u.hedged = true
	obs.GetCounter("dist.hedges").Inc()
	obs.Log().LogAttrs(ctx, slog.LevelInfo, "hedging straggler shard",
		slog.Int("shard", oldest.u.id),
		slog.String("slow_worker", oldest.worker.url), slog.String("hedge_worker", w.url),
		slog.Duration("running_for", time.Since(oldest.start)))
	c.launch(ctx, oldest.u, w)
}

// merge assembles the shard results into the Results a local run over
// the same grid would have produced. Cells are copied from the shards
// (the pipeline is deterministic, so their measurements are
// bit-identical) and priced here, as a local run prices them: the
// coordinator's grid always holds the baseline. Runs is
// Σ(shard.Runs − shard.BaselineRuns): an unpriced shard evaluates no
// baseline out of grid, and a priced one from a worker that ignored
// Unpriced has that work subtracted, leaving exactly the logical runs a
// single run over the full grid counts (the baseline's own grid cell is
// inside exactly one shard). Phases.CostModel is the merge's own
// pricing.
func (c *coordinator) merge(start time.Time) (*dse.Results, error) {
	res := dse.NewResults(c.grid, c.benches)
	var runs, failures int64
	var phases dse.PhaseTimes
	for _, u := range c.units {
		// Every unit is done, and handle checked its result.
		r := u.res
		for k, gi := range u.indices {
			res.Eval[u.bench][gi] = r.Eval[u.bench][k]
		}
		runs += r.Stats.Runs - r.Stats.BaselineRuns
		failures += r.Stats.Failures
		phases.Compile += r.Stats.Phases.Compile
		phases.Simulate += r.Stats.Phases.Simulate
	}
	t0 := time.Now()
	if err := res.Price(nil); err != nil {
		return nil, err
	}
	phases.CostModel = time.Since(t0)
	res.Finish(dse.Stats{Runs: runs, Failures: failures, Phases: phases}, time.Since(start))
	return res, nil
}
