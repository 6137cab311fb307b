// Package dse implements the paper's design-space exploration loop
// (Section 2.2): for every candidate architecture, retarget the
// compiler, compile every benchmark at increasing unroll factors until
// the registers spill, measure performance against the baseline
// machine, and feed cost/performance into the constrained selection
// mechanisms of Tables 8-10 and the scatter diagrams of Figures 3-4.
package dse

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"customfit/internal/bench"
	"customfit/internal/evcache"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/obs"
	"customfit/internal/opt"
	"customfit/internal/sched"
)

// UnrollFactors is the sweep of unroll factors, tried in order until
// the compiler spills (the paper's stopping rule).
var UnrollFactors = []int{1, 2, 4, 8}

// ErrCancelled is returned (wrapped) by context-threaded entry points
// when the caller's context ends before the work completes. It always
// wraps the context's own error, so both
// errors.Is(err, dse.ErrCancelled) and
// errors.Is(err, context.Canceled) (or DeadlineExceeded) hold.
var ErrCancelled = errors.New("dse: cancelled")

// cancelledErr wraps ctx's error in ErrCancelled.
func cancelledErr(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrCancelled, context.Cause(ctx))
}

// Evaluation is one (benchmark, architecture) measurement.
type Evaluation struct {
	Arch    machine.Arch
	Bench   string
	Unroll  int     // unroll factor that produced the best time
	Cycles  int64   // simulated-equivalent cycles on the reference workload
	Time    float64 // Cycles × cycle-time derating (see Results.Price)
	Speedup float64 // baseline time / Time (filled by Results.Price)
	Spilled int     // registers spilled at the chosen unroll
	// Failed: no unroll factor compiled, not even 1 — the spill loop
	// gave up ("register pressure does not fit"). Rare, not impossible:
	// the shipped results hold two such cells (EXPERIMENTS.md).
	Failed bool
	// Cancelled marks an evaluation abandoned because the caller's
	// context ended. Cancelled work is not a compile failure: Failed
	// stays false, and the explorer accounts it separately.
	Cancelled bool `json:",omitempty"`
}

// prepared caches the architecture-independent compilation artifacts of
// one benchmark at one unroll factor: the optimized+unrolled kernel
// (wrapped with its shared pre-scheduling skeleton cache) and the
// per-block execution counts on the reference workload (block visit
// counts do not depend on the target architecture). The once gives the
// entry singleflight semantics: concurrent workers racing on a cold
// (benchmark, unroll) key build it exactly once, off the cache lock.
type prepared struct {
	once   sync.Once
	kernel *sched.Prepared
	visits map[string]int64
	err    error
}

// fnEntry is the once-guarded part of a benchmark's preparation that
// does not depend on the unroll factor: its IR, lowered and optimized.
type fnEntry struct {
	once sync.Once
	fn   *ir.Func
	err  error
}

// sweepResult is the architecture-signature-invariant part of one
// unroll sweep: everything Evaluate measures, before it is priced. runs
// is how many backend compilations the sweep performed (cache hits
// re-count them as logical runs, the paper's Table 3 accounting). cancelled marks a sweep abandoned mid-way because the
// context ended; cancelled sweeps are never cached.
type sweepResult struct {
	unroll    int
	cycles    int64
	spilled   int
	failed    bool
	cancelled bool
	runs      int64
}

// sweepOf is the sweep a cache entry records.
func sweepOf(ce evcache.Entry) sweepResult {
	return sweepResult{
		unroll:  ce.Unroll,
		cycles:  ce.Cycles,
		spilled: ce.Spilled,
		failed:  ce.Failed,
		runs:    ce.Runs,
	}
}

// evaluation is the measurement the sweep amounts to for arch, one of
// the machines of its signature class: the one place a sweep —
// compiled, found in the cache by an evaluation or answered to a whole
// benchmark at once (answerCached) — becomes an Evaluation. It is not
// priced: Evaluate prices its one cell, Results.Price a whole grid.
func (sw sweepResult) evaluation(bench string, arch machine.Arch) Evaluation {
	return Evaluation{
		Arch:      arch,
		Bench:     bench,
		Unroll:    sw.unroll,
		Cycles:    sw.cycles,
		Spilled:   sw.spilled,
		Failed:    sw.failed,
		Cancelled: sw.cancelled,
	}
}

// price sets ev's Time from its cycles and its machine's cycle-time
// derate: zero for a failed or cancelled cell. The derate is the only
// architecture-specific factor the backend result does not cover; it
// is constant and positive across the sweep, so the min-cycles sweep
// winner is also the min-time winner.
func (ev *Evaluation) price(derate float64) {
	ev.Time = 0
	if !ev.Failed && !ev.Cancelled {
		ev.Time = float64(ev.Cycles) * derate
	}
}

// EvalConfig is the evaluation configuration, declared once and
// embedded by both Evaluator and Explorer (which hands it to its
// evaluator whole). DisableMemo, DisableDelta and Cache are
// result-neutral: Results are bit-identical whatever they are set to.
type EvalConfig struct {
	// Width is the reference workload width in pixels.
	Width int
	// DisableMemo is the reference path: every evaluation runs real
	// backend compiles, resolving through no cache at all — not the
	// attached Cache, not the evaluator's private memory tier
	// (benchmarks, equivalence tests).
	DisableMemo bool
	// DisableDelta turns off delta compilation (the per-kernel cache of
	// reusable block schedules and allocation verdicts that makes
	// one-parameter neighbor re-evaluation cheap; see
	// sched.CompilePreparedDelta and docs/PERFORMANCE.md). The switch
	// exists for measurement and A/B verification, not correctness.
	DisableDelta bool
	// Cache is where sweeps are kept: content-addressed by hash(kernel
	// source, unroll policy, compiler fingerprint, reference workload) ×
	// backend signature (see CacheKey, internal/evcache and
	// docs/PERFORMANCE.md). Equal-signature architectures compile
	// identically (see archSig), so one sweep answers its whole class.
	// Attach one to share sweeps between evaluators, persist them across
	// processes or read them from the fleet; nil gives the evaluator a
	// private memory-only cache.
	Cache *evcache.Cache
}

// workloadSeed generates every evaluation's reference workload. Cycle
// counts are priced by machine.DefaultCycleModel.
const workloadSeed = 1

// defaultEvalConfig is the standard reference workload (96 pixels,
// seed workloadSeed).
func defaultEvalConfig() EvalConfig {
	return EvalConfig{Width: 96}
}

// Evaluator compiles benchmarks for architectures with caching.
type Evaluator struct {
	EvalConfig

	mu    sync.Mutex
	cache map[string]map[int]*prepared // bench -> unroll -> artifacts
	fns   map[string]*fnEntry          // bench -> optimized IR
	keys  map[string]string            // bench -> kernel-class hash

	// private is the memory-only cache evaluations resolve through when
	// no Cache is attached, created on first use.
	privateOnce sync.Once
	private     *evcache.Cache

	// Compilations counts backend runs (the paper's Table 3 "# runs").
	// An evaluation answered from the cache counts the cached sweep's
	// runs: the paper's metric is logical compilations, not deduplicated
	// work (evcache.hits tracks the dedup).
	Compilations atomic.Int64

	// Cumulative phase time (nanoseconds), attributing wall time to
	// compile (backend runs) vs simulate (reference interpreter runs).
	// Summed across workers, so totals can exceed wall time.
	compileNS  atomic.Int64
	simulateNS atomic.Int64
}

// PhaseTimes reports cumulative time spent compiling and simulating
// (reference runs) across all evaluations so far.
func (e *Evaluator) PhaseTimes() (compile, simulate time.Duration) {
	return time.Duration(e.compileNS.Load()), time.Duration(e.simulateNS.Load())
}

// NewEvaluator returns an evaluator with the standard reference
// workload (96 pixels, seed 1).
func NewEvaluator() *Evaluator {
	return &Evaluator{
		EvalConfig: defaultEvalConfig(),
		cache:      map[string]map[int]*prepared{},
		fns:        map[string]*fnEntry{},
	}
}

// optimized returns b's optimized IR, parsing, lowering and optimizing
// the kernel exactly once even under concurrent callers. The function
// is shared by the benchmark's unroll factors: each unrolls a clone.
func (e *Evaluator) optimized(sp *obs.Span, b *bench.Benchmark) (*ir.Func, error) {
	e.mu.Lock()
	ent, ok := e.fns[b.Name]
	if !ok {
		ent = &fnEntry{}
		e.fns[b.Name] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		fn, err := b.CompileSpan(sp)
		if err == nil {
			err = opt.OptimizeSpan(sp, fn)
		}
		if err != nil {
			ent.err = err
			return
		}
		ent.fn = fn
	})
	return ent.fn, ent.err
}

// prepare returns (cached) prepared IR and visit counts for b at unroll
// u, recording frontend/opt/reference-run telemetry under sp on a cache
// miss: opt.PrepareSpan's result, reached by its two halves so that the
// first is paid once per benchmark and only the unrolling per factor.
// The per-key once means two workers can never duplicate an unroll or a
// reference run of the same (benchmark, unroll).
func (e *Evaluator) prepare(sp *obs.Span, b *bench.Benchmark, u int) *prepared {
	e.mu.Lock()
	byU, ok := e.cache[b.Name]
	if !ok {
		byU = map[int]*prepared{}
		e.cache[b.Name] = byU
	}
	p, ok := byU[u]
	if !ok {
		p = &prepared{}
		byU[u] = p
	}
	e.mu.Unlock()
	p.once.Do(func() {
		fn, err := e.optimized(sp, b)
		if err != nil {
			p.err = err
			return
		}
		g := fn.Clone()
		if err := opt.UnrollSpan(sp, g, u); err != nil {
			p.err = err
			return
		}
		p.kernel = sched.NewPrepared(g)
		vsp := obs.Under(sp, "sim.reference").Str("bench", b.Name).Int("unroll", int64(u))
		t0 := time.Now()
		p.visits, p.err = e.countVisits(b, g)
		e.simulateNS.Add(int64(time.Since(t0)))
		vsp.End()
	})
	return p
}

// countVisits interprets the prepared IR over the reference workload
// and records how many times each block executes.
func (e *Evaluator) countVisits(b *bench.Benchmark, g *ir.Func) (map[string]int64, error) {
	c := b.NewCase(e.Width, workloadSeed).Clone()
	env := c.Env()
	env.Visits = map[string]int64{}
	if _, err := ir.Interp(g, env); err != nil {
		return nil, fmt.Errorf("dse: reference run of %s: %w", b.Name, err)
	}
	return env.Visits, nil
}

// Evaluate compiles benchmark b for arch, sweeping unroll factors until
// the compiler spills, and returns the best-performing compilation.
func (e *Evaluator) Evaluate(b *bench.Benchmark, arch machine.Arch) Evaluation {
	return e.evaluate(context.Background(), b, arch, nil)
}

// EvaluateCtx is Evaluate under a context: a cancelled ctx abandons the
// sweep between backend compiles and returns an Evaluation marked
// Cancelled (never Failed). Results are identical to Evaluate whenever
// ctx stays live.
func (e *Evaluator) EvaluateCtx(ctx context.Context, b *bench.Benchmark, arch machine.Arch) Evaluation {
	return e.evaluate(ctx, b, arch, nil)
}

// EvaluateScratch is Evaluate threading the caller's scratch arena
// through the backend (see sched.Scratch; with nil a sweep borrows one).
func (e *Evaluator) EvaluateScratch(b *bench.Benchmark, arch machine.Arch, sc *sched.Scratch) Evaluation {
	return e.evaluate(context.Background(), b, arch, sc)
}

// evaluate is measure with the cell's Time priced: what the exported
// Evaluate methods return. An exploration's grid takes measure's cells,
// which Results.Price prices, or Measure leaves unpriced.
func (e *Evaluator) evaluate(ctx context.Context, b *bench.Benchmark, arch machine.Arch, sc *sched.Scratch) Evaluation {
	ev := e.measure(ctx, b, arch, sc)
	ev.price(machine.DefaultCycleModel.Derate(arch))
	return ev
}

// measure resolves one cell's sweep, through the cache unless
// DisableMemo, and returns its evaluation with zero Time and Speedup.
func (e *Evaluator) measure(ctx context.Context, b *bench.Benchmark, arch machine.Arch, sc *sched.Scratch) Evaluation {
	// StartSpanCtx parents the evaluation under the exploration's span
	// when one rides ctx (each evaluation forks its own track).
	esp := obs.StartSpanCtx(ctx, "evaluate")
	if esp != nil {
		esp.Str("bench", b.Name).Str("arch", arch.String())
		defer esp.End()
	}
	var sw sweepResult
	if e.DisableMemo {
		sw = e.runSweep(ctx, esp, b, arch, sc)
	} else {
		sw = e.sweepThroughCache(ctx, esp, b, arch, sc)
	}
	ev := sw.evaluation(b.Name, arch)
	if esp != nil {
		esp.Int("unroll", int64(ev.Unroll)).Int("cycles", ev.Cycles)
	}
	if ev.Failed {
		obs.GetCounter("dse.eval_failures").Inc()
	}
	if ev.Cancelled {
		obs.GetCounter("dse.eval_cancelled").Inc()
	}
	return ev
}

// sweepCache returns the cache evaluations resolve through: the
// attached one, or the evaluator's private memory-only one.
func (e *Evaluator) sweepCache() *evcache.Cache {
	if e.Cache != nil {
		return e.Cache
	}
	e.privateOnce.Do(func() {
		// A memory-only Open creates no directory, so it cannot fail.
		e.private, _ = evcache.Open("")
	})
	return e.private
}

// sweepThroughCache resolves one evaluation's signature class through
// the cache, running the real sweep only on a miss. evcache.DoErr is
// the one singleflight on the evaluation path: concurrent misses on a
// class share one sweep, a cancelled sweep is never stored, and a live
// waiter coalesced onto a cancelled sweep recomputes instead of
// inheriting the cancellation. A hit stands in for this architecture's
// compilations: the cached sweep's runs are re-counted as logical runs
// (Table 3 accounting), so Results and Stats are bit-identical whether
// the cache is cold, warm, shared, evicting or private.
func (e *Evaluator) sweepThroughCache(ctx context.Context, esp *obs.Span, b *bench.Benchmark, arch machine.Arch, sc *sched.Scratch) sweepResult {
	var buf keyBuf
	key := appendCacheKey(buf[:0], e.kernelClass(b), arch)
	ce, hit, err := e.sweepCache().DoErrBytes(b.Name, key, func() (evcache.Entry, error) {
		sw := e.runSweep(ctx, esp, b, arch, sc)
		if sw.cancelled {
			// Abort the singleflight: a half-finished sweep must never be
			// persisted or handed to coalesced waiters as the real result.
			return evcache.Entry{}, cancelledErr(ctx)
		}
		return evcache.Entry{
			Unroll:  sw.unroll,
			Cycles:  sw.cycles,
			Spilled: sw.spilled,
			Failed:  sw.failed,
			Runs:    sw.runs,
		}, nil
	})
	if err != nil {
		return sweepResult{cancelled: true}
	}
	if hit {
		e.countCached(ce.Runs)
	}
	return sweepOf(ce)
}

// countCached counts the backend runs of sweeps answered from the cache
// as this evaluator's logical runs.
func (e *Evaluator) countCached(runs int64) {
	e.Compilations.Add(runs)
	obs.GetCounter("dse.compiles").Add(runs)
}

// KernelClass returns a benchmark's content-addressed kernel-class
// hash for a reference workload of the given width and seed:
// everything a sweep result depends on besides the backend signature —
// the kernel source, the unroll policy, the compiler fingerprint
// (backend version + latency constants + the frontend/opt pipeline
// version), and the reference workload whose visit counts weight the
// cycle totals. Cost and cycle-time models are deliberately excluded:
// they are applied outside the backend, so retuning them never
// invalidates cached sweeps. Exported so that cache entries can be
// addressed without an Evaluator; evaluators always pass workloadSeed.
func KernelClass(b *bench.Benchmark, width int, seed int64) string {
	// The hashed text is what
	//
	//	fmt.Sprintf("kernel=%s\x00%s\x00unroll=%v\x00%s\x00prep-v%d\x00workload=%dx seed %d",
	//		b.Name, b.Source, UnrollFactors, sched.Fingerprint(), prepPipelineVersion, width, seed)
	//
	// spells, and must stay so: every cache directory is addressed by it
	// (TestKernelClassPinned).
	fp := sched.Fingerprint()
	t := make([]byte, 0, len(b.Name)+len(b.Source)+len(fp)+96)
	t = append(append(t, "kernel="...), b.Name...)
	t = append(append(t, 0), b.Source...)
	t = append(t, "\x00unroll=["...)
	for i, u := range UnrollFactors {
		if i > 0 {
			t = append(t, ' ')
		}
		t = strconv.AppendInt(t, int64(u), 10)
	}
	t = append(append(t, "]\x00"...), fp...)
	t = strconv.AppendInt(append(t, "\x00prep-v"...), prepPipelineVersion, 10)
	t = strconv.AppendInt(append(t, "\x00workload="...), int64(width), 10)
	t = strconv.AppendInt(append(t, "x seed "...), seed, 10)
	sum := sha256.Sum256(t)
	var class [24]byte
	hex.Encode(class[:], sum[:12])
	return string(class[:])
}

// CacheKey returns the evcache key of one architecture within a kernel
// class (KernelClass); the cache shard name is the benchmark name.
// This is the fleet-wide content address: every evaluator, on any node,
// and the fleet cache tier it reads through to use exactly this key,
// which is what makes "compile anything at most once across the whole
// fleet" possible.
func CacheKey(kernelClass string, a machine.Arch) string {
	var buf keyBuf
	return string(appendCacheKey(buf[:0], kernelClass, a))
}

// appendCacheKey appends CacheKey's bytes to b. Every warm evaluation
// derives one and looks it up where it stands (evcache.DoErrBytes), so
// the hit path makes no string of it.
func appendCacheKey(b []byte, kernelClass string, a machine.Arch) []byte {
	return sigOf(a).appendKey(append(append(b, kernelClass...), ':'))
}

// kernelClass memoizes KernelClass for this evaluator's workload.
func (e *Evaluator) kernelClass(b *bench.Benchmark) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	k, ok := e.keys[b.Name]
	if !ok {
		k = KernelClass(b, e.Width, workloadSeed)
		if e.keys == nil {
			e.keys = map[string]string{}
		}
		e.keys[b.Name] = k
	}
	return k
}

// prepPipelineVersion fingerprints the architecture-independent
// preparation pipeline (frontend lowering, opt passes, unrolling,
// reference interpretation). Bump it when any of those change
// observable IR or visit counts; cached sweeps self-invalidate.
const prepPipelineVersion = 1

// cachedGrid is what a run holds to answer whole rows of its results —
// one benchmark on every architecture of the grid — from the attached
// cache (answerCached).
type cachedGrid struct {
	archs []machine.Arch
	// What a row needs of each architecture and not of the benchmark,
	// derived once when several rows share the grid and nil otherwise
	// (a run of one row reads the table once, which saves nothing): the
	// signature half of the cache keys, end to end (architecture i's is
	// sig[off[i]:off[i+1]]).
	sig []byte
	off []int32
}

// newCachedGrid returns the grid of a run of rows benchmarks over
// archs, or nil when rows are never answered from the cache: without an
// attached one, or with DisableMemo.
func (e *Evaluator) newCachedGrid(archs []machine.Arch, rows int) *cachedGrid {
	if e.Cache == nil || e.DisableMemo {
		return nil
	}
	g := &cachedGrid{archs: archs}
	if rows > 1 {
		g.sig = make([]byte, 0, 32*len(archs))
		g.off = make([]int32, len(archs)+1)
		for i, a := range archs {
			g.sig = sigOf(a).appendKey(g.sig)
			g.off[i+1] = int32(len(g.sig))
		}
	}
	return g
}

// appendSigKey appends architecture i's signature key to b.
func (g *cachedGrid) appendSigKey(b []byte, i int) []byte {
	if g.off == nil {
		return sigOf(g.archs[i]).appendKey(b)
	}
	return append(b, g.sig[g.off[i]:g.off[i+1]]...)
}

// answerCached fills row — b's evaluations on g's architectures,
// unpriced (the run prices its grid whole: Results.Price) — from
// the attached cache when the cache holds all of them, and reports
// whether it did. The whole row is one batch lookup (evcache.GetAll):
// the pass that finds the benchmark covered is the pass that answers
// it, every cell counted as the hit an evaluation of it would have
// been, and b is neither prepared nor queued. A row with a single cell
// missing is left alone — nothing filled, nothing counted — for
// evaluations to resolve one by one. failed is how many of an answered
// row's cells are failed sweeps.
func (e *Evaluator) answerCached(sp *obs.Span, b *bench.Benchmark, g *cachedGrid, row []Evaluation) (covered bool, failed int64) {
	asp := sp.Child("dse.answer_cached")
	kc := e.kernelClass(b)
	var runs int64
	covered, loaded := e.Cache.GetAll(b.Name, len(g.archs),
		func(buf []byte, i int) []byte {
			return g.appendSigKey(append(append(buf, kc...), ':'), i)
		},
		func(i int, ce evcache.Entry) {
			row[i] = sweepOf(ce).evaluation(b.Name, g.archs[i])
			runs += ce.Runs
			if ce.Failed {
				failed++
			}
		})
	if !covered {
		return false, 0 // asp never ends: nothing is recorded of it
	}
	e.countCached(runs)
	if failed > 0 {
		obs.GetCounter("dse.eval_failures").Add(failed)
	}
	obs.GetCounter("dse.evals_from_cache").Add(int64(len(row)))
	if asp != nil {
		asp.Str("bench", b.Name).Int("cells", int64(len(row))).Str("shard_loaded", strconv.FormatBool(loaded)).End()
	}
	return true, failed
}

// LowerBoundCycles returns an admissible lower bound on the unroll
// sweep's best cycle count for b on arch, without compiling: for each
// unroll factor it sums sched.LowerBound's per-block bounds weighted
// by the reference workload's block visit counts, and takes the
// minimum across factors (the sweep keeps its own minimum over a
// subset of those factors, so the bound can never exceed the real
// result). ok is false when the benchmark cannot be prepared at all or
// sched.LowerBound has no bound, because the backend rewrites the blocks
// for arch before scheduling them; SpeedupBound turns that into "never
// prune".
func (e *Evaluator) LowerBoundCycles(b *bench.Benchmark, arch machine.Arch) (bound int64, ok bool) {
	best := int64(-1)
	for _, u := range UnrollFactors {
		p := e.prepare(nil, b, u)
		if p.err != nil {
			break
		}
		lbs := sched.LowerBound(p.kernel, arch)
		if lbs == nil {
			return 0, false
		}
		var total int64
		for i, blk := range p.kernel.F.Blocks {
			total += int64(lbs[i]) * p.visits[blk.Name]
		}
		if best < 0 || total < best {
			best = total
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// SpeedupBound builds an admissible upper bound on the
// speedup-under-cost-cap objective (the cost-capped selector's search
// objective): -Inf over the cap, else baselineTime divided by the
// smallest time the architecture could possibly achieve
// (LowerBoundCycles × its exact cycle-time derate). Since the cycle
// bound never exceeds the real sweep result and the derate is
// architecture-exact, the returned value always ≥ the real speedup —
// so search strategies may prune candidates whose bound cannot beat
// their incumbent without changing what they find (search.Bound).
func (e *Evaluator) SpeedupBound(b *bench.Benchmark, baselineTime float64, cost machine.CostModel, costCap float64) func(machine.Arch) float64 {
	return func(a machine.Arch) float64 {
		if cost.Cost(a) > costCap {
			return math.Inf(-1) // exactly the objective's value: infeasible
		}
		lb, ok := e.LowerBoundCycles(b, a)
		if !ok || lb <= 0 {
			return math.Inf(1) // cannot bound: never prune
		}
		return baselineTime / (float64(lb) * machine.DefaultCycleModel.Derate(a))
	}
}

// runSweep performs the real unroll-until-spill sweep for one
// (benchmark, architecture), returning the signature-invariant result.
// Cancellation is observed between backend compiles, not inside one.
// Most are milliseconds, but the compile that ends a sweep usually
// spills, runs up to sched.MaxSpillIterations schedule/allocate rounds
// and takes up to ~0.2 s on a 2-core box (kernel GEF at unroll 4 on
// (8 2 128 1 8 4); docs/PERFORMANCE.md, "Cold path"): that is how long
// a cancelled sweep can take to return, with cancelled set and failed
// cleared — abandoned work is not a compile failure. A caller without
// an arena has the sweep borrow one: each compile's Result is read
// before the next compile, so the delta path may assemble it in the
// arena and allocate nothing.
func (e *Evaluator) runSweep(ctx context.Context, esp *obs.Span, b *bench.Benchmark, arch machine.Arch, sc *sched.Scratch) sweepResult {
	if sc == nil {
		sc = sched.GetScratch()
		defer sched.PutScratch(sc)
	}
	sw := sweepResult{failed: true}
	for _, u := range UnrollFactors {
		if ctx.Err() != nil {
			sw.cancelled = true
			sw.failed = false
			return sw
		}
		p := e.prepare(esp, b, u)
		if p.err != nil {
			break // unrollable limit reached (op budget etc.)
		}
		t0 := time.Now()
		var res *sched.Result
		var err error
		if e.DisableDelta {
			res, err = sched.CompilePrepared(esp, p.kernel, arch, sc)
		} else {
			res, err = sched.CompilePreparedDelta(esp, p.kernel, arch, sc)
		}
		e.compileNS.Add(int64(time.Since(t0)))
		e.Compilations.Add(1)
		sw.runs++
		obs.GetCounter("dse.compiles").Inc()
		if err != nil {
			if errors.Is(err, sched.ErrNoFit) {
				obs.GetCounter("dse.compile_nofit").Inc()
				break // paper rule: stop at this unroll and all larger
			}
			obs.GetCounter("dse.compile_errors").Inc()
			break
		}
		cycles := res.Prog.StaticCycles(p.visits)
		if sw.failed || cycles < sw.cycles {
			sw.failed = false
			sw.unroll = u
			sw.cycles = cycles
			sw.spilled = res.Spilled
		}
		if res.Spilled > 0 {
			break // spilled: stop considering larger unroll factors
		}
	}
	return sw
}
