package dse

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"customfit/internal/bench"
	"customfit/internal/machine"
	"customfit/internal/obs"
	"customfit/internal/sched"
)

// ProgressInfo snapshots an in-flight exploration for progress
// reporting.
type ProgressInfo struct {
	Done, Total int
	// Failed counts evaluations where no unroll factor compiled.
	// Work abandoned because the context was cancelled is counted in
	// Cancelled, never here.
	Failed int64
	// Cancelled counts evaluations abandoned by context cancellation.
	Cancelled int64
	// Elapsed is wall time since the exploration started.
	Elapsed time.Duration
	// RatePerSec is evaluations completed per second of wall time.
	RatePerSec float64
	// ETA estimates remaining wall time at the current rate.
	ETA time.Duration
}

// Explorer runs the full experiment: every concrete machine in the
// design space (design points × cluster arrangements) against every
// benchmark.
type Explorer struct {
	// EvalConfig is handed to the run's evaluator whole. A benchmark
	// whose whole (arch × kernel) slice Cache holds is answered from it
	// in one pass: not prepared, not queued.
	EvalConfig
	Benchmarks []*bench.Benchmark // default: bench.All()
	Archs      []machine.Arch     // default: machine.FullSpace()
	Workers    int                // default: GOMAXPROCS
	// Progress, if set, is called with monotonically increasing Done
	// counts as evaluations complete (a benchmark answered whole from
	// Cache is one call). Calls are serialized, but never
	// block the workers: when the sink is slower than the fleet,
	// intermediate updates are dropped; the final update (Done == Total)
	// is always delivered.
	Progress func(ProgressInfo)
}

// NewExplorer returns an explorer over the full space and benchmark
// suite with default models. Archs and Benchmarks are left nil, which
// RunCtx reads as the full space and the full suite: a caller with a
// grid or kernels of its own does not pay for what it overwrites.
func NewExplorer() *Explorer {
	return &Explorer{EvalConfig: defaultEvalConfig()}
}

// PhaseTimes breaks exploration wall time down by pipeline phase.
// Times are cumulative across workers, so their sum can exceed the
// single wall-clock duration on multi-worker runs.
type PhaseTimes struct {
	// Compile is time in the backend (partition/schedule/allocate/spill).
	Compile time.Duration
	// Simulate is time in reference-workload interpreter runs.
	Simulate time.Duration
	// CostModel is time in Results.Price: the grid's datapath costs,
	// cycle times and speedups.
	CostModel time.Duration
}

// Stats summarizes an exploration run (the paper's Table 3).
type Stats struct {
	Runs          int64 // benchmark compilations
	Architectures int   // concrete machines evaluated
	DesignPoints  int   // unclustered design points
	Benchmarks    int
	WallTime      time.Duration
	PerArch       time.Duration // wall time / architectures
	PerRun        time.Duration // wall time / runs
	// Failures counts evaluations where no unroll factor compiled.
	// Zero-valued in files saved before this field existed. Evaluations
	// abandoned by context cancellation are counted in Cancelled, not
	// here (a cancelled run is not a compile failure).
	Failures int64
	// Cancelled counts evaluations abandoned because the exploration's
	// context ended. Always zero for a run that completed.
	Cancelled int64 `json:",omitempty"`
	// BaselineRuns counts the compilations (logical, like Runs — and
	// included in it) spent evaluating the baseline machine for Price
	// when it is not part of the explored grid. Zero whenever the
	// baseline is in Archs (the full space includes it), so files saved
	// from full runs are unchanged, and zero for Measure, which prices
	// nothing. The distributed coordinator (internal/dist) subtracts it
	// when merging shards: a shard priced by a worker evaluates the
	// baseline for its speedup denominators, but only the shard that
	// owns the baseline's grid cell may count it.
	BaselineRuns int64 `json:",omitempty"`
	// Phases attributes cumulative time to compile vs simulate vs
	// cost-model work. Zero-valued in files saved before this field
	// existed.
	Phases PhaseTimes
}

// Results holds every measurement from one exploration.
type Results struct {
	Archs   []machine.Arch
	Benches []string
	Cost    []float64               // per arch
	Eval    map[string][]Evaluation // bench -> per-arch evaluations
	Stats   Stats
}

// NewResults allocates the shell every exploration fills, whether one
// process runs it (Explorer.RunCtx) or a fleet does (internal/dist's
// merge): the grid and one zero Evaluation per (benchmark,
// architecture) cell. Price fills in what the cells' cycles cost.
func NewResults(archs []machine.Arch, benches []*bench.Benchmark) *Results {
	res := &Results{Archs: archs, Eval: map[string][]Evaluation{}}
	for _, b := range benches {
		res.Benches = append(res.Benches, b.Name)
		res.Eval[b.Name] = make([]Evaluation, len(archs))
	}
	return res
}

// Price turns the measured cycles of r into what the report compares,
// under machine.DefaultCostModel and machine.DefaultCycleModel: every
// machine's Cost, every cell's Time (its Cycles × its machine's
// cycle-time derate) and Speedup (the baseline's Time on the cell's
// benchmark ÷ the cell's Time), with zero Time and Speedup for a failed
// cell. The baseline is the grid's machine.Baseline cell; a grid
// without one takes base[k] as the baseline's Time on r.Benches[k].
// The explorer and the distributed merge both end on it.
func (r *Results) Price(base []float64) error {
	// One allocation for both: a warm run or a fleet shard is answered
	// in a few allocations, and each more shows per evaluation.
	n := len(r.Archs)
	buf := make([]float64, 2*n)
	r.Cost = buf[:n:n]
	derate := buf[n:]
	for i, a := range r.Archs {
		r.Cost[i] = machine.DefaultCostModel.Cost(a)
		derate[i] = machine.DefaultCycleModel.Derate(a)
	}
	bi := slices.Index(r.Archs, machine.Baseline)
	for k, b := range r.Benches {
		row := r.Eval[b]
		for i := range row {
			row[i].price(derate[i])
		}
		var bt float64
		if bi >= 0 {
			bt = row[bi].Time
		} else if k < len(base) {
			bt = base[k]
		}
		if bt <= 0 {
			return fmt.Errorf("dse: baseline failed on %s", b)
		}
		for i := range row {
			row[i].Speedup = 0
			if row[i].Time > 0 {
				row[i].Speedup = bt / row[i].Time
			}
		}
	}
	return nil
}

// DistinctBenchmarks refuses a benchmark named twice: Results keeps one
// row per name, so the two would share it and fill the same cells.
func DistinctBenchmarks(benches []*bench.Benchmark) error {
	seen := make(map[string]bool, len(benches))
	for _, b := range benches {
		if seen[b.Name] {
			return fmt.Errorf("dse: benchmark %s given twice", b.Name)
		}
		seen[b.Name] = true
	}
	return nil
}

// designPoints is the size of the unclustered design space, which every
// run's Stats reports and no run changes.
var designPoints = sync.OnceValue(func() int { return len(machine.DesignSpace()) })

// Finish sets Stats from what the caller counted — s carries Runs,
// Failures, Cancelled, BaselineRuns and Phases — and adds what follows
// from the shell and the wall time: the grid's dimensions and the
// per-architecture and per-run means.
func (r *Results) Finish(s Stats, wall time.Duration) {
	s.Architectures = len(r.Archs)
	s.DesignPoints = designPoints()
	s.Benchmarks = len(r.Benches)
	s.WallTime = wall
	if len(r.Archs) > 0 {
		s.PerArch = wall / time.Duration(len(r.Archs))
	}
	if s.Runs > 0 {
		s.PerRun = wall / time.Duration(s.Runs)
	}
	r.Stats = s
}

// A job is one evaluation — benchmark bi on architecture ai — or, with
// unroll set, one preparation of benchmark bi.
type job struct {
	bi, ai int
	unroll int
}

// prepareJobs lists the preparations of the benchmarks in cold (indices
// into the run's benchmarks) in the order a run queues them:
// unroll-major, so neighbours in the queue belong to different
// benchmarks and two workers do not meet on one benchmark's
// optimize-once.
func prepareJobs(cold []int) []job {
	out := make([]job, 0, len(cold)*len(UnrollFactors))
	for _, u := range UnrollFactors {
		for _, bi := range cold {
			out = append(out, job{bi: bi, unroll: u})
		}
	}
	return out
}

// progress is one run's count of finished evaluations and the delivery
// of it to the Progress sink.
type progress struct {
	sink                    func(ProgressInfo) // nil: count only
	start                   time.Time
	total                   int
	done, failed, cancelled atomic.Int64
	// mu serializes the sink without ever making workers wait on it: the
	// snapshot is assembled lock-free from the atomics, and a contended
	// intermediate update is simply dropped. last (under mu) keeps
	// delivered updates monotonic when snapshots race.
	mu   sync.Mutex
	last int
}

// finished counts n more evaluations done and reports the new total.
func (p *progress) finished(n int) {
	d := int(p.done.Add(int64(n)))
	if p.sink == nil {
		return
	}
	elapsed := time.Since(p.start)
	info := ProgressInfo{
		Done:      d,
		Total:     p.total,
		Failed:    p.failed.Load(),
		Cancelled: p.cancelled.Load(),
		Elapsed:   elapsed,
	}
	if elapsed > 0 {
		info.RatePerSec = float64(d) / elapsed.Seconds()
	}
	if info.RatePerSec > 0 {
		info.ETA = time.Duration(float64(p.total-d) / info.RatePerSec * float64(time.Second))
	}
	if d == p.total {
		p.mu.Lock() // the final update must not be dropped
	} else if !p.mu.TryLock() {
		return // sink busy: skip this intermediate update
	}
	if d > p.last {
		p.last = d
		p.sink(info)
	}
	p.mu.Unlock()
}

// Run executes the exploration to completion (RunCtx with a background
// context).
func (e *Explorer) Run() (*Results, error) {
	return e.RunCtx(context.Background())
}

// RunCtx executes the exploration under ctx: Measure, then Price. When
// the grid lacks the baseline machine, the baseline is evaluated out of
// grid for its times, and those compilations are counted in
// Stats.BaselineRuns. Cancelling ctx stops the scheduling of new
// evaluations immediately, lets in-flight backend compiles finish (each
// is milliseconds), and returns an error wrapping ErrCancelled; no
// partial Results are returned. When ctx is never cancelled the Results
// are bit-identical to Run's.
func (e *Explorer) RunCtx(ctx context.Context) (*Results, error) {
	return e.explore(ctx, true)
}

// Measure is RunCtx short of pricing: every cell's cycles, unroll
// factor, spills and flags, but no Cost (nil), and zero Time and
// Speedup. It evaluates no baseline out of grid, so Stats.BaselineRuns
// is zero. A fleet worker measures its shard this way and leaves the
// pricing to the coordinator's merge (internal/dist).
func (e *Explorer) Measure(ctx context.Context) (*Results, error) {
	return e.explore(ctx, false)
}

// explore is RunCtx, or Measure when priced is false.
func (e *Explorer) explore(ctx context.Context, priced bool) (*Results, error) {
	// The run's root span: parented under the context's span when one is
	// there (a serve.job continuing a coordinator's trace), a standalone
	// root otherwise. Threading it back through ctx parents every
	// per-evaluation span underneath.
	rsp := obs.StartSpanCtx(ctx, "dse.explore")
	defer rsp.End()
	ctx = obs.ContextWithSpan(ctx, rsp)

	archs := e.Archs
	if archs == nil {
		archs = machine.FullSpace()
	}

	benches := e.Benchmarks
	if benches == nil {
		benches = bench.All()
	}
	if err := DistinctBenchmarks(benches); err != nil {
		return nil, err
	}

	ev := NewEvaluator()
	ev.EvalConfig = e.EvalConfig
	if ev.Width <= 0 {
		ev.Width = 96
	}

	start := time.Now()
	res := NewResults(archs, benches)
	r := &run{rsp: rsp, ev: ev, benches: benches, archs: archs, res: res}
	r.sink, r.start, r.total = e.Progress, start, len(benches)*len(archs)

	// A benchmark whose whole row the attached cache holds is answered
	// here, in the pass that finds it so: it is not prepared (one
	// prepared IR per unroll factor — frontend compile, optimize, unroll,
	// reference run — is the dominant cost of a warm re-run), not queued,
	// and a run of nothing else starts no worker. The others are cold.
	var cold []int
	grid := ev.newCachedGrid(archs, len(benches))
	for bi, b := range benches {
		if ctx.Err() != nil {
			return nil, cancelledErr(ctx)
		}
		if grid != nil {
			if covered, failed := ev.answerCached(rsp, b, grid, res.Eval[b.Name]); covered {
				r.failed.Add(failed)
				r.finished(len(archs))
				continue
			}
		}
		cold = append(cold, bi)
	}
	if len(cold) > 0 {
		workers := e.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		r.queue(ctx, workers, cold)
	}
	if ctx.Err() != nil {
		return nil, cancelledErr(ctx)
	}

	// The baseline machine is evaluated like any other (it is in the
	// space); if absent and the run prices, evaluate it now for Price
	// and attribute those runs to Stats.BaselineRuns (grid runs and
	// out-of-grid baseline runs must stay separable for distributed
	// merges).
	preBaselineRuns := ev.Compilations.Load()
	var costTime time.Duration
	if priced {
		var base []float64
		if !slices.Contains(archs, machine.Baseline) {
			base = make([]float64, len(benches))
			for k, b := range benches {
				bev := ev.EvaluateCtx(ctx, b, machine.Baseline)
				if bev.Cancelled {
					return nil, cancelledErr(ctx)
				}
				base[k] = bev.Time
			}
		}
		t0 := time.Now()
		if err := res.Price(base); err != nil {
			return nil, err
		}
		costTime = time.Since(t0)
	}

	wall := time.Since(start)
	runs := ev.Compilations.Load()
	compileTime, simTime := ev.PhaseTimes()
	res.Finish(Stats{
		Runs:         runs,
		Failures:     r.failed.Load(),
		Cancelled:    r.cancelled.Load(),
		BaselineRuns: runs - preBaselineRuns,
		Phases: PhaseTimes{
			Compile:   compileTime,
			Simulate:  simTime,
			CostModel: costTime,
		},
	}, wall)
	if obs.Enabled() && wall > 0 {
		obs.SetGauge("dse.compiles_per_sec", float64(runs)/wall.Seconds())
		obs.SetGauge("dse.evals_per_sec", float64(r.total)/wall.Seconds())
		obs.GetCounter("dse.evaluations").Add(int64(r.total))
	}
	return res, nil
}

// run is what the workers of one RunCtx share.
type run struct {
	rsp     *obs.Span
	ev      *Evaluator
	benches []*bench.Benchmark
	archs   []machine.Arch
	res     *Results
	progress
}

// queue evaluates the cold benchmarks (indices into r.benches) on every
// architecture into r.res, on that many workers. Preparations are
// queued ahead of the evaluations and drained by the same workers, so
// they run on every core; the evaluator's per-key once makes an
// evaluation that overtakes its preparation wait for it (or do it)
// instead of repeating it. It returns when the workers have: after the
// last evaluation or, once ctx ends, after the jobs already queued have
// short-circuited.
func (r *run) queue(ctx context.Context, workers int, cold []int) {
	// Room for two jobs a worker: the feeder runs ahead of the workers,
	// not in step with them.
	jobs := make(chan job, workers*2)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Evaluations are plain values: once the worker is done,
			// nothing refers to its arena.
			sc := sched.GetScratch()
			defer sched.PutScratch(sc)
			var busy, wait time.Duration
			for {
				t0 := time.Now()
				j, ok := <-jobs
				wait += time.Since(t0)
				if !ok {
					break
				}
				b := r.benches[j.bi]
				t1 := time.Now()
				if j.unroll != 0 {
					// Queued before the context ended, like the
					// evaluations below: skipped, not run.
					if ctx.Err() == nil {
						psp := r.rsp.Fork("dse.prepare").Str("bench", b.Name).Int("unroll", int64(j.unroll))
						r.ev.prepare(psp, b, j.unroll)
						psp.End()
					}
					busy += time.Since(t1)
					continue
				}
				evl := r.ev.measure(ctx, b, r.archs[j.ai], sc)
				busy += time.Since(t1)
				r.res.Eval[b.Name][j.ai] = evl
				switch {
				case evl.Cancelled:
					r.cancelled.Add(1)
				case evl.Failed:
					r.failed.Add(1)
				}
				r.finished(1)
			}
			obs.GetHistogram("dse.worker_busy_seconds").Observe(busy.Seconds())
			obs.GetHistogram("dse.worker_queue_wait_seconds").Observe(wait.Seconds())
		}()
	}
	// Feed the fleet; a cancelled context stops scheduling right here —
	// workers then drain only what is already queued, and each of those
	// jobs short-circuits (an evaluation to Cancelled) before compiling.
	send := func(j job) bool {
		select {
		case jobs <- j:
			return true
		case <-ctx.Done():
			return false
		}
	}
	feed := func() {
		for _, j := range prepareJobs(cold) {
			if !send(j) {
				return
			}
		}
		for _, bi := range cold {
			for ai := range r.archs {
				if !send(job{bi: bi, ai: ai}) {
					return
				}
			}
		}
	}
	feed()
	close(jobs)
	wg.Wait()
}

// ScatterPoint is one (cost, speedup) point of Figures 3/4.
type ScatterPoint struct {
	Arch    machine.Arch
	Cost    float64
	Speedup float64
	Best    bool // on the best cost/performance frontier
}

// Scatter builds the Figure 3/4 data for one benchmark: each design
// point appears once with its best cluster arrangement (the paper:
// "after the best cluster arrangement had been selected"), and the
// Pareto frontier of best cost/performance alternatives is marked.
// Points run by cost, then by speedup, best first, then by index in
// Archs, so a tie always names the same machine.
func (r *Results) Scatter(benchName string) []ScatterPoint {
	evs, ok := r.Eval[benchName]
	if !ok {
		return nil
	}
	// Group by unclustered design point; keep the best-speedup cluster
	// arrangement, the first in Archs on a tie. The op set is part of
	// the design point (it changes the datapath, and the cost), so
	// op-enabled variants chart as their own points rather than
	// collapsing into their 6-tuple base.
	type key struct {
		a, m, reg, p2, l2 int
		ops               string
	}
	best := map[key]int{}
	for i, ev := range evs {
		if ev.Failed {
			continue
		}
		k := key{ev.Arch.ALUs, ev.Arch.MULs, ev.Arch.Regs, ev.Arch.L2Ports, ev.Arch.L2Lat, ev.Arch.Ops.Key()}
		if j, ok := best[k]; !ok || ev.Speedup > evs[j].Speedup {
			best[k] = i
		}
	}
	idx := make([]int, 0, len(best))
	for _, i := range best {
		idx = append(idx, i)
	}
	sort.Slice(idx, func(x, y int) bool {
		i, j := idx[x], idx[y]
		if r.Cost[i] != r.Cost[j] {
			return r.Cost[i] < r.Cost[j]
		}
		if evs[i].Speedup != evs[j].Speedup {
			return evs[i].Speedup > evs[j].Speedup
		}
		return i < j
	})
	pts := make([]ScatterPoint, len(idx))
	for n, i := range idx {
		pts[n] = ScatterPoint{Arch: evs[i].Arch, Cost: r.Cost[i], Speedup: evs[i].Speedup}
	}
	// Pareto frontier: increasing cost must strictly improve speedup.
	bestSu := 0.0
	for i := range pts {
		if pts[i].Speedup > bestSu {
			pts[i].Best = true
			bestSu = pts[i].Speedup
		}
	}
	return pts
}
