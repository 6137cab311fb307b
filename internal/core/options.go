package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"customfit/internal/bench"
	"customfit/internal/dse"
	"customfit/internal/evcache"
	"customfit/internal/machine"
	"customfit/internal/search"
)

// Sentinel errors of the facade. Every context-threaded entry point
// classifies its failures into one of these (wrapped, so errors.Is
// works) or returns an untyped internal error.
var (
	// ErrCancelled reports that the caller's context ended before the
	// work completed. It is dse.ErrCancelled, and always also matches
	// the underlying context.Canceled / context.DeadlineExceeded.
	ErrCancelled = dse.ErrCancelled
	// ErrInfeasible reports that no architecture satisfies the given
	// constraints (typically the cost cap).
	ErrInfeasible = errors.New("customfit: no architecture satisfies the constraints")
	// ErrBadKernel reports that CKC source failed to parse or lower.
	ErrBadKernel = errors.New("customfit: kernel does not compile")
)

// ExploreOptions configures a design-space exploration. The zero value
// explores the full concrete space on the paper's full benchmark suite
// with default models — the paper's Table 3 run.
type ExploreOptions struct {
	// Benchmarks to evaluate (nil = the paper's full suite).
	Benchmarks []*bench.Benchmark
	// Archs restricts the space (nil = machine.FullSpace()).
	Archs []machine.Arch
	// Sample > 1 keeps every Nth machine of the space, always retaining
	// the baseline so speedups stay defined.
	Sample int
	// ExactArchs explores exactly Archs as given: Sample is ignored and
	// the baseline machine is not appended when absent (speedups are
	// still measured against it — the explorer evaluates an out-of-grid
	// baseline and accounts those compilations in Stats.BaselineRuns).
	// Shard dispatch (internal/dist) relies on this to keep distributed
	// runs accounting-identical to a single local run.
	ExactArchs bool
	// Width is the reference workload width in pixels (default 96).
	Width int
	// Parallelism bounds concurrent compile workers (default
	// GOMAXPROCS).
	Parallelism int
	// CacheDir, when non-empty, persists evaluation sweeps under this
	// directory (content-addressed; results identical, warm re-runs
	// near-instant — see docs/PERFORMANCE.md).
	CacheDir string
	// Cache is a pre-opened evaluation cache, taking precedence over
	// CacheDir. The caller keeps ownership (it is not closed here);
	// long-lived processes such as cfp-serve share one cache across
	// requests this way. External callers use CacheDir instead.
	Cache *evcache.Cache
	// Progress, if set, receives monotonically increasing snapshots
	// while exploring (see dse.ProgressInfo for the contract).
	Progress func(dse.ProgressInfo)
	// Ops, when non-nil, crosses the explored grid with the custom-op
	// axis: every architecture appears once op-free and once with the
	// whole catalog enabled (machine.CrossOps with machine.DefaultMasks;
	// per-op granularity is the search strategies' job). Nil keeps the
	// classic 6-tuple exploration bit-identical. Ignored under
	// ExactArchs — there the caller crosses the grid itself (the
	// distributed coordinator pre-crosses before sharding).
	Ops *machine.OpSet
}

// resolveArchs is the explored grid: machine.Grid over Archs, Sample
// and Ops, unless ExactArchs pins Archs verbatim.
func (o *ExploreOptions) resolveArchs() []machine.Arch {
	if o.ExactArchs {
		return o.Archs
	}
	return machine.Grid(o.Archs, o.Sample, o.Ops)
}

// openCache resolves the cache the options ask for: the pre-opened one,
// or a fresh one under CacheDir. ownClose reports whether the caller
// must close it.
func (o *ExploreOptions) openCache() (c *evcache.Cache, ownClose bool, err error) {
	if o.Cache != nil {
		return o.Cache, false, nil
	}
	if o.CacheDir == "" {
		return nil, false, nil
	}
	c, err = evcache.Open(o.CacheDir)
	return c, true, err
}

// Explore runs the design-space exploration described by opts under
// ctx. Cancelling ctx stops scheduling new evaluations immediately and
// returns an error wrapping ErrCancelled; an uncancelled run's Results
// are bit-identical to the equivalent dse.Explorer run (warm or cold
// cache).
func Explore(ctx context.Context, opts ExploreOptions) (*dse.Results, error) {
	e := dse.NewExplorer()
	e.Benchmarks = opts.Benchmarks
	e.Archs = opts.resolveArchs()
	e.Width = opts.Width
	e.Workers = opts.Parallelism
	e.Progress = opts.Progress
	cache, own, err := opts.openCache()
	if err != nil {
		return nil, err
	}
	e.Cache = cache
	res, rerr := e.RunCtx(ctx)
	if own && cache != nil {
		if cerr := cache.Close(); rerr == nil && cerr != nil {
			return nil, cerr
		}
	}
	return res, rerr
}

// FitOptions configures a custom-fit search (the paper's headline
// loop). Benchmarks and CostCap are required; the embedded exploration
// knobs default like ExploreOptions.
type FitOptions struct {
	// Benchmarks the architecture is fit to (required).
	Benchmarks []*bench.Benchmark
	// CostCap is the datapath cost budget relative to the baseline.
	CostCap float64
	// Range backs the selection off pure specialization: 0 picks the
	// feasible architecture with the best mean speedup on Benchmarks;
	// Range > 0 (e.g. 0.10) picks, among feasible architectures within
	// Range of that best mean, the cheapest one (ties broken by
	// speedup) — the paper's Section 4.2 "within 10% of the best"
	// designer scenario.
	Range float64
	// Archs / Sample / Width / Parallelism / CacheDir as in
	// ExploreOptions.
	Archs       []machine.Arch
	Sample      int
	Width       int
	Parallelism int
	CacheDir    string
	// Cache as in ExploreOptions (pre-opened, caller-owned).
	Cache *evcache.Cache
	// Progress as in ExploreOptions.
	Progress func(dse.ProgressInfo)
	// Ops as in ExploreOptions: crosses the fitted grid with the
	// custom-op axis, letting the selection trade datapath area for
	// fused-instruction cycles under the same cost cap.
	Ops *machine.OpSet
}

// CustomFitCtx explores the space and selects the best architecture for
// opts.Benchmarks under opts.CostCap. It returns ErrInfeasible (wrapped)
// when no explored architecture fits the cap, and ErrCancelled when ctx
// ends first.
func CustomFitCtx(ctx context.Context, opts FitOptions) (*FitResult, error) {
	if len(opts.Benchmarks) == 0 {
		return nil, fmt.Errorf("customfit: no benchmarks given")
	}
	res, err := Explore(ctx, ExploreOptions{
		Benchmarks:  opts.Benchmarks,
		Archs:       opts.Archs,
		Sample:      opts.Sample,
		Width:       opts.Width,
		Parallelism: opts.Parallelism,
		CacheDir:    opts.CacheDir,
		Cache:       opts.Cache,
		Progress:    opts.Progress,
		Ops:         opts.Ops,
	})
	if err != nil {
		return nil, err
	}
	return pickBest(res, opts.CostCap, opts.Range)
}

// SearchOptions configures a search-strategy comparison (the paper's
// third research question): how close do cheap strategies come to the
// exhaustive optimum for one benchmark under a cost cap.
type SearchOptions struct {
	// Benchmark to fit (required).
	Benchmark *bench.Benchmark
	// CostCap is the cost budget; candidates over it score -Inf.
	CostCap float64
	// Space restricts the candidate set (nil = search.SubLattice()). The
	// local strategies move along its ±1 neighbourhoods, so a smaller
	// space must keep them: a strided sample of the sub-lattice starves
	// hill climbing and annealing of moves.
	Space []machine.Arch
	// Ops, when non-nil, crosses the space with the custom-op catalog
	// (machine.CrossOps with the default masks); the strategies then
	// explore op toggles as single-parameter moves.
	Ops *machine.OpSet
	// Width is the reference workload width (default 64, matching
	// cfp-search).
	Width int
	// Seed drives the stochastic strategies.
	Seed int64
	// CacheDir / Cache as in ExploreOptions.
	CacheDir string
	Cache    *evcache.Cache
}

// SearchCompare runs every search strategy against the real
// compile-and-measure objective under ctx and normalizes scores to the
// exhaustive optimum. Cancelling ctx stops the in-flight strategy
// promptly and returns ErrCancelled (wrapped). A cache opened from
// CacheDir is closed before returning; a failed flush is the error of
// an otherwise successful comparison.
func SearchCompare(ctx context.Context, opts SearchOptions) (out []search.Result, err error) {
	if opts.Benchmark == nil {
		return nil, fmt.Errorf("customfit: no benchmark given")
	}
	space := opts.Space
	if space == nil {
		space = search.SubLattice()
	}
	// Not machine.Grid: the baseline is only the speedup denominator
	// here, and appending it as a candidate would change what the seeded
	// strategies find.
	if opts.Ops != nil {
		space = machine.CrossOps(space, opts.Ops, machine.DefaultMasks(opts.Ops))
	}
	ev := dse.NewEvaluator()
	if opts.Width > 0 {
		ev.Width = opts.Width
	} else {
		ev.Width = 64
	}
	eo := ExploreOptions{CacheDir: opts.CacheDir, Cache: opts.Cache}
	cache, own, err := eo.openCache()
	if err != nil {
		return nil, err
	}
	ev.Cache = cache
	if own {
		defer func() {
			if cerr := cache.Close(); err == nil && cerr != nil {
				out, err = nil, cerr
			}
		}()
	}
	baseline := ev.EvaluateCtx(ctx, opts.Benchmark, machine.Baseline)
	if baseline.Cancelled {
		return nil, fmt.Errorf("%w: %w", ErrCancelled, context.Cause(ctx))
	}
	if baseline.Failed {
		return nil, fmt.Errorf("customfit: baseline evaluation failed for %s", opts.Benchmark.Name)
	}
	cost := machine.DefaultCostModel
	obj := func(a machine.Arch) float64 {
		if cost.Cost(a) > opts.CostCap {
			return math.Inf(-1)
		}
		e := ev.EvaluateCtx(ctx, opts.Benchmark, a)
		if e.Failed || e.Cancelled {
			return math.Inf(-1)
		}
		return baseline.Time / e.Time
	}
	// The deterministic strategies prune on the bound: exact (the same
	// optima), with fewer compiles.
	bound := ev.SpeedupBound(opts.Benchmark, baseline.Time, cost, opts.CostCap)
	out, err = search.CompareCtx(ctx, space, search.Objective(obj), bound, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCancelled, err)
	}
	return out, nil
}

// pickBest is the selection step of a fit over res, which explored
// exactly the target benchmarks. Range = 0 is pure specialization: the
// first feasible architecture with the best mean speedup on them.
// Range > 0 backs off: among feasible architectures whose mean is
// within Range of that best, the cheapest (ties broken by higher
// speedup).
func pickBest(res *dse.Results, costCap, rng float64) (*FitResult, error) {
	best, bestMean := -1, -1.0
	res.Feasible(costCap, res.Benches, func(i int, mean float64) {
		if mean > bestMean {
			best, bestMean = i, mean
		}
	})
	if best < 0 {
		return nil, fmt.Errorf("%w: cost cap %.1f", ErrInfeasible, costCap)
	}
	if rng > 0 {
		floor, pickMean := bestMean*(1-rng), 0.0
		best = -1
		res.Feasible(costCap, res.Benches, func(i int, mean float64) {
			if mean < floor {
				return
			}
			if best < 0 ||
				res.Cost[i] < res.Cost[best] ||
				(res.Cost[i] == res.Cost[best] && mean > pickMean) {
				best, pickMean = i, mean
			}
		})
	}
	out := &FitResult{
		Best:     res.Archs[best],
		Cost:     res.Cost[best],
		Speedups: map[string]float64{},
		Results:  res,
	}
	for _, b := range res.Benches {
		out.Speedups[b] = res.Eval[b][best].Speedup
	}
	return out, nil
}
