package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"sync/atomic"

	"customfit/internal/bench"
	"customfit/internal/core"
	"customfit/internal/dse"
	"customfit/internal/machine"
	"customfit/internal/sched"
	"customfit/internal/search"
)

// Sizes shared by the workloads. Every workload has one closed-loop
// client; explorations compile with two workers: the box this was sized on
// has two cores.
const (
	exploreWidth = 96  // reference workload width of the explore workloads
	searchWidth  = 64  // as cfp-search
	simWidth     = 256 // pixels simulated per oneshot_sim request
	costCap      = 10.0
	fitRange     = 0.1
	parallelism  = 2
	recheckCells = 32
)

var workloads = []workload{
	{
		Name:  "explore_cold",
		Why:   "the paper's experiment on an empty cache: the backend (sched, regalloc, ddg under dse's memo and delta) does the work, evcache is written",
		setup: func(cfg config) (instance, error) { return newExplore(cfg, "explore_cold", false) },
	},
	{
		Name:  "explore_ops_cold",
		Why:   "the same with the custom-op axis crossed in: ops.Rewrite and custom-unit scheduling on the path; an op-path change must move this and not explore_cold",
		setup: func(cfg config) (instance, error) { return newExplore(cfg, "explore_ops_cold", true) },
	},
	{
		Name:  "explore_warm",
		Why:   "a fit over the full space answered from a warm disk cache: evcache reads, machine cost and selection; the backend does nothing",
		setup: newExploreWarm,
	},
	{
		Name:  "search_walk",
		Why:   "hill climbing, annealing and a genetic search over the full space: one-parameter moves, so delta compilation and the signature memo do the work",
		setup: newSearchWalk,
	},
	{
		Name:  "oneshot_sim",
		Why:   "parse, compile, simulate and verify one kernel per request with nothing amortised: the only workload where opt, sim and the frontend carry real share",
		setup: newOneshotSim,
	},
	{
		Name:  "fleet_warm",
		Why:   "the explore_warm grid through a hub and two workers over loopback: dist sharding and merge, serve submit to done, fleetcache round trips",
		setup: newFleetWarm,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// canonicalJSON encodes results with their wall-clock fields zeroed:
// two runs of one grid agree on every other byte.
func canonicalJSON(res *dse.Results) (string, error) {
	c := *res
	c.Stats.WallTime, c.Stats.PerArch, c.Stats.PerRun = 0, 0, 0
	c.Stats.Phases = dse.PhaseTimes{}
	data, err := c.JSON()
	return string(data), err
}

// resultsQuality reads the two quality metrics off an exploration: the
// geometric mean over kernels of the best speedup among machines within
// the cost cap, and the geometric mean of every cell's cycles.
func resultsQuality(res *dse.Results) (fit, cycles float64) {
	var best, all []float64
	for _, b := range res.Benches {
		top := 0.0
		for i, ev := range res.Eval[b] {
			if ev.Failed {
				continue
			}
			all = append(all, float64(ev.Cycles))
			if res.Cost[i] <= costCap && ev.Speedup > top {
				top = ev.Speedup
			}
		}
		best = append(best, top)
	}
	return geomean(best), geomean(all)
}

// countFailedEvals fails the op once per evaluation that did not compile
// or was cancelled.
func countFailedEvals(p *pass, res *dse.Results) {
	for _, b := range res.Benches {
		for _, ev := range res.Eval[b] {
			if ev.Failed || ev.Cancelled {
				p.fail("evaluation of %s on %s failed", b, ev.Arch)
			}
		}
	}
}

// sameEvaluation compares what the backend decides; the explorer fills
// Speedup in afterwards.
func sameEvaluation(a, b dse.Evaluation) bool {
	a.Speedup, b.Speedup = 0, 0
	return a == b
}

// ---------------------------------------------------------------------
// explore_cold, explore_ops_cold

type exploreInst struct {
	cfg  config
	name string
	opts core.ExploreOptions
	dir  string // cache directory of the pass in flight

	first string // canonical JSON of the first pass
	last  *dse.Results
}

func newExplore(cfg config, name string, withOps bool) (instance, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	kernels := bench.All()
	// The baseline and every second paper machine: a pass of about two
	// seconds, so a run holds enough passes for a median. With the op
	// axis, half of those, each crossed: 88 evaluations against 77.
	all := paperMachines()
	archs := []machine.Arch{all[0], all[1], all[3], all[5], all[7], all[9], all[11]}
	if withOps {
		archs = archs[:4]
	}
	archs = archs[:cfg.scaled(len(archs), 1)]
	x := &exploreInst{cfg: cfg, name: name, opts: core.ExploreOptions{
		Benchmarks:  shuffled(rng, kernels),
		Archs:       shuffled(rng, archs),
		Width:       exploreWidth,
		Parallelism: parallelism,
	}}
	if withOps {
		set, err := machine.ParseOpCatalog(pinnedOps)
		if err != nil {
			return nil, err
		}
		x.opts.Ops = set
	}
	// Warm the process, not the cache: the baseline column through the
	// whole path, into a directory no pass reads.
	warm := x.opts
	warm.Archs = []machine.Arch{machine.Baseline}
	warm.Ops = nil
	dir, err := os.MkdirTemp(cfg.TmpDir, "warmup")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	warm.CacheDir = dir
	if _, err := core.Explore(context.Background(), warm); err != nil {
		return nil, err
	}
	return x, nil
}

func (x *exploreInst) pass(p *pass) error {
	dir, err := os.MkdirTemp(x.cfg.TmpDir, "cold")
	if err != nil {
		return err
	}
	x.dir = dir
	opts := x.opts
	opts.CacheDir = dir
	p.op(x.name+".op", func(sp *spanRef) (int, error) {
		var res *dse.Results
		var err error
		timed(sp, "core.Explore", func() { res, err = core.Explore(context.Background(), opts) })
		if err != nil {
			return 0, err
		}
		x.last = res
		return len(res.Benches) * len(res.Archs), nil
	})
	return nil
}

func (x *exploreInst) check(p *pass) {
	os.RemoveAll(x.dir)
	if x.last == nil {
		return
	}
	countFailedEvals(p, x.last)
	got, err := canonicalJSON(x.last)
	switch {
	case err != nil:
		p.fail("encode results: %v", err)
	case x.first == "":
		x.first = got
	case got != x.first:
		p.fail("pass results differ from the first pass")
	}
}

// finish re-evaluates a seeded subsample of the grid the slow way — a
// fresh evaluator with the signature memo and delta compilation off —
// and requires identical evaluations. No expected value is frozen into
// the benchmark, so a compiler change cannot break the check.
func (x *exploreInst) finish(p *pass) (fit, cycles float64) {
	res := x.last
	if res == nil {
		return math.NaN(), math.NaN()
	}
	type idx struct{ b, a int }
	var cells []idx
	for b := range res.Benches {
		for a := range res.Archs {
			cells = append(cells, idx{b, a})
		}
	}
	rng := rand.New(rand.NewSource(x.cfg.Seed))
	cells = shuffled(rng, cells)
	if n := x.cfg.scaled(recheckCells, 4); len(cells) > n {
		cells = cells[:n]
	}
	ev := dse.NewEvaluator()
	ev.Width = exploreWidth
	ev.DisableMemo, ev.DisableDelta = true, true
	byName := map[string]*bench.Benchmark{}
	for _, b := range x.opts.Benchmarks {
		byName[b.Name] = b
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := sched.NewScratch()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				name := res.Benches[cells[i].b]
				got := res.Eval[name][cells[i].a]
				want := ev.EvaluateScratch(byName[name], res.Archs[cells[i].a], sc)
				if !sameEvaluation(got, want) {
					p.fail("%s on %s: explored %+v, cold path %+v", name, got.Arch, got, want)
				}
			}
		}()
	}
	wg.Wait()
	return resultsQuality(res)
}

func (x *exploreInst) replayInputs() replayInputs {
	archs := x.opts.Archs
	if set := x.opts.Ops; set != nil {
		archs = machine.CrossOps(archs, set, machine.DefaultMasks(set))
	}
	return replayInputs{Kernels: x.opts.Benchmarks, Archs: archs, Width: exploreWidth, Results: x.last}
}

func (x *exploreInst) close() {}

// ---------------------------------------------------------------------
// explore_warm

// warmGrid is the grid of explore_warm and fleet_warm: the full space in
// seeded order against the four cheap single kernels.
func warmGrid(cfg config) ([]*bench.Benchmark, []machine.Arch) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	archs := shuffled(rng, machine.FullSpace())
	return shuffled(rng, benches("D", "E", "F", "G")), archs[:cfg.scaled(len(archs), 1)]
}

type exploreWarmInst struct {
	cfg      config
	opts     core.FitOptions
	want     *core.FitResult
	wantJSON string
	got      []*core.FitResult
}

func newExploreWarm(cfg config) (instance, error) {
	kernels, archs := warmGrid(cfg)
	dir, err := os.MkdirTemp(cfg.TmpDir, "warm")
	if err != nil {
		return nil, err
	}
	x := &exploreWarmInst{cfg: cfg, opts: core.FitOptions{
		Benchmarks:  kernels,
		CostCap:     costCap,
		Range:       fitRange,
		Archs:       archs,
		Width:       exploreWidth,
		Parallelism: parallelism,
		CacheDir:    dir,
	}}
	// The cold fill: the answer every warm op must repeat.
	x.want, err = core.CustomFitCtx(context.Background(), x.opts)
	if err != nil {
		x.close()
		return nil, err
	}
	x.wantJSON, err = canonicalJSON(x.want.Results)
	if err != nil {
		x.close()
		return nil, err
	}
	return x, nil
}

func (x *exploreWarmInst) pass(p *pass) error {
	x.got = x.got[:0]
	for i, n := 0, x.cfg.scaled(40, 2); i < n; i++ {
		p.op("explore_warm.op", func(sp *spanRef) (int, error) {
			var fit *core.FitResult
			var err error
			timed(sp, "core.CustomFitCtx", func() { fit, err = core.CustomFitCtx(context.Background(), x.opts) })
			if err != nil {
				return 0, err
			}
			x.got = append(x.got, fit)
			return len(fit.Results.Benches) * len(fit.Results.Archs), nil
		})
	}
	return nil
}

func (x *exploreWarmInst) check(p *pass) {
	for _, fit := range x.got {
		got, err := canonicalJSON(fit.Results)
		switch {
		case fit.Results.Stats.Phases.Compile != 0:
			p.fail("a warm op spent %v in the backend", fit.Results.Stats.Phases.Compile)
		case err != nil:
			p.fail("encode results: %v", err)
		case got != x.wantJSON:
			p.fail("warm results differ from the cold fill")
		case fit.Best != x.want.Best:
			p.fail("warm fit chose %s, cold fill chose %s", fit.Best, x.want.Best)
		}
	}
	x.got = x.got[:0]
}

func (x *exploreWarmInst) finish(p *pass) (fit, cycles float64) {
	countFailedEvals(p, x.want.Results)
	return resultsQuality(x.want.Results)
}

func (x *exploreWarmInst) replayInputs() replayInputs {
	return replayInputs{Kernels: x.opts.Benchmarks, Archs: x.opts.Archs, Width: exploreWidth, Results: x.want.Results}
}

func (x *exploreWarmInst) close() { os.RemoveAll(x.opts.CacheDir) }

// ---------------------------------------------------------------------
// search_walk

// searchSeeds drive the stochastic strategies. They are fixed, and so is
// the order of the strategies: the walk a strategy takes decides how many
// machines it compiles for, a count that moves by a tenth from one random
// walk to the next, and which strategy meets the evaluator cold decides the
// median search time. The run's seed orders the kernels.
var searchSeeds = []int64{1, 2}

// strategy is one search as search.CompareCtx parameterises it.
type strategy struct {
	Name string
	Seed int64
	run  func(ctx context.Context, space []machine.Arch, obj search.Objective, seed int64) (search.Result, error)
}

func strategies(space []machine.Arch) []strategy {
	var out []strategy
	for _, seed := range searchSeeds {
		out = append(out,
			strategy{"hill-climb", seed, func(ctx context.Context, sp []machine.Arch, obj search.Objective, seed int64) (search.Result, error) {
				return search.HillClimbCtx(ctx, sp, obj, 4, seed, nil)
			}},
			strategy{"anneal", seed, func(ctx context.Context, sp []machine.Arch, obj search.Objective, seed int64) (search.Result, error) {
				return search.AnnealCtx(ctx, sp, obj, len(space)/3, seed)
			}},
			strategy{"genetic", seed, func(ctx context.Context, sp []machine.Arch, obj search.Objective, seed int64) (search.Result, error) {
				return search.GeneticCtx(ctx, sp, obj, 8, 12, seed)
			}},
		)
	}
	return out
}

type searchRun struct {
	Bench *bench.Benchmark
	Res   search.Result
}

type searchInst struct {
	cfg     config
	kernels []*bench.Benchmark
	space   []machine.Arch
	order   []strategy
	runs    []searchRun
	cold    map[string]*searchObjective // the slow path, for checking
}

// searchObjective is the objective of core.SearchCompare: speedup over
// the baseline under the cost cap, -Inf over the cap or when nothing
// compiles.
type searchObjective struct {
	ev       *dse.Evaluator
	bench    *bench.Benchmark
	baseline dse.Evaluation
}

func newSearchObjective(b *bench.Benchmark, slow bool) (*searchObjective, error) {
	ev := dse.NewEvaluator()
	ev.Width = searchWidth
	ev.DisableMemo, ev.DisableDelta = slow, slow
	base := ev.Evaluate(b, machine.Baseline)
	if base.Failed {
		return nil, fmt.Errorf("baseline evaluation failed for %s", b.Name)
	}
	return &searchObjective{ev: ev, bench: b, baseline: base}, nil
}

func (o *searchObjective) score(e dse.Evaluation) float64 {
	if e.Failed || e.Cancelled {
		return math.Inf(-1)
	}
	return o.baseline.Time / e.Time
}

// objective is the function the strategies maximise. Calls that reach
// the evaluator are counted in *calls and recorded under sp.
func (o *searchObjective) objective(sp *spanRef, calls *int) search.Objective {
	return func(a machine.Arch) float64 {
		if machine.DefaultCostModel.Cost(a) > costCap {
			return math.Inf(-1)
		}
		*calls++
		var e dse.Evaluation
		timed(sp, "dse.Evaluate", func() { e = o.ev.Evaluate(o.bench, a) })
		return o.score(e)
	}
}

func newSearchWalk(cfg config) (instance, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	x := &searchInst{
		cfg:     cfg,
		kernels: shuffled(rng, benches("D", "E", "F", "G")),
		space:   machine.FullSpace(),
		cold:    map[string]*searchObjective{},
	}
	x.space = x.space[:cfg.scaled(len(x.space), 1)]
	x.order = strategies(x.space)
	for _, b := range x.kernels {
		o, err := newSearchObjective(b, true)
		if err != nil {
			return nil, err
		}
		x.cold[b.Name] = o
		// Warm the process: one search per kernel on a throw-away
		// evaluator.
		if o, err = newSearchObjective(b, false); err != nil {
			return nil, err
		}
		var calls int
		_, err = x.order[0].run(context.Background(), x.space, o.objective(nil, &calls), x.order[0].Seed)
		if err != nil {
			return nil, err
		}
	}
	return x, nil
}

// pass runs every strategy on every kernel, one fresh evaluator per
// kernel as core.SearchCompare has it. An op is one strategy's search;
// an evaluation is one objective call that reaches the evaluator.
func (x *searchInst) pass(p *pass) error {
	ctx := context.Background()
	x.runs = x.runs[:0]
	for _, b := range x.kernels {
		o, err := newSearchObjective(b, false)
		if err != nil {
			return err
		}
		for _, st := range x.order {
			p.op("search_walk.op", func(sp *spanRef) (int, error) {
				evals := 0
				ssp := sp.child("search." + st.Name)
				res, err := st.run(ctx, x.space, o.objective(ssp, &evals), st.Seed)
				ssp.end()
				x.runs = append(x.runs, searchRun{b, res})
				return evals, err
			})
		}
	}
	return nil
}

// check recomputes every strategy's best score on the slow path: the
// delta and memo paths against the cold compile.
func (x *searchInst) check(p *pass) {
	for _, r := range x.runs {
		o := x.cold[r.Bench.Name]
		if got := o.score(o.ev.Evaluate(r.Bench, r.Res.Best)); got != r.Res.BestScore {
			p.fail("%s on %s: best score %v for %s, cold path gives %v",
				r.Res.Strategy, r.Bench.Name, r.Res.BestScore, r.Res.Best, got)
		}
	}
}

func (x *searchInst) finish(p *pass) (fit, cycles float64) {
	best := map[string]searchRun{}
	for _, r := range x.runs {
		if cur, ok := best[r.Bench.Name]; !ok || r.Res.BestScore > cur.Res.BestScore {
			best[r.Bench.Name] = r
		}
	}
	var scores, cyc []float64
	for _, b := range x.kernels {
		r := best[b.Name]
		scores = append(scores, r.Res.BestScore)
		cyc = append(cyc, float64(x.cold[b.Name].ev.Evaluate(b, r.Res.Best).Cycles))
	}
	return geomean(scores), geomean(cyc)
}

func (x *searchInst) replayInputs() replayInputs {
	return replayInputs{Kernels: x.kernels, Archs: x.space, Width: searchWidth}
}

func (x *searchInst) close() {}

// ---------------------------------------------------------------------
// oneshot_sim

type simOutput struct {
	Req    int
	Mem    map[string][]int32
	Cycles int64
	Time   float64
}

type simInst struct {
	cfg   config
	reqs  []simRequest
	cases map[string]*bench.Case
	// golden and interp are the expected output memories per kernel,
	// from the hand-written Go model and from interpreting the
	// unscheduled IR: neither comes from the compiler under test.
	golden map[string]map[string][]int32
	interp map[string]map[string][]int32

	outs []simOutput
	all  []simOutput // outputs of the last pass, kept for finish
}

func newOneshotSim(cfg config) (instance, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	kernels := bench.All()
	archs := paperMachines()
	x := &simInst{
		cfg:    cfg,
		reqs:   requestStream(rng, kernels, archs[:cfg.scaled(len(archs), 1)]),
		cases:  map[string]*bench.Case{},
		golden: map[string]map[string][]int32{},
		interp: map[string]map[string][]int32{},
	}
	for _, b := range kernels {
		c := b.NewCase(simWidth, cfg.Seed)
		x.cases[b.Name] = c
		x.golden[b.Name] = c.Golden()
		k, err := core.ParseKernel(b.Source)
		if err != nil {
			return nil, err
		}
		ref := c.Clone()
		if err := k.Interpret(ref.Args, ref.Mem); err != nil {
			return nil, fmt.Errorf("interpret %s: %w", b.Name, err)
		}
		x.interp[b.Name] = ref.Mem
	}
	// Warm the process: every kernel once through the whole path.
	warm := &pass{}
	for i, r := range x.reqs {
		if r.Arch == machine.Baseline {
			warm.op("warmup", func(sp *spanRef) (int, error) { return x.serve(sp, i) })
		}
	}
	x.outs = x.outs[:0]
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %s", warm.errs[0])
	}
	return x, nil
}

// pass sends the stream from one closed-loop client, so the wall time of
// a pass is the sum of its requests whatever order the seed put them in.
// Two clients make it follow the order, by a seventh from seed to seed: a
// long compile at the end of the stream leaves one of them idle.
func (x *simInst) pass(p *pass) error {
	x.outs = x.outs[:0]
	for i := range x.reqs {
		p.op("oneshot_sim.op", func(sp *spanRef) (int, error) { return x.serve(sp, i) })
	}
	return nil
}

// serve is one request: source text in, simulated run out.
func (x *simInst) serve(sp *spanRef, i int) (int, error) {
	r := x.reqs[i]
	var k *core.Kernel
	var c *core.Compiled
	var st *core.RunStats
	var err error
	timed(sp, "core.ParseKernel", func() { k, err = core.ParseKernel(r.Bench.Source) })
	if err != nil {
		return 0, err
	}
	timed(sp, "core.Compile", func() { c, err = k.Compile(r.Arch, r.Unroll) })
	if err != nil {
		return 0, fmt.Errorf("%s on %s unroll %d: %w", r.Bench.Name, r.Arch, r.Unroll, err)
	}
	run := x.cases[r.Bench.Name].Clone()
	timed(sp, "core.Run", func() { st, err = c.Run(run.Args, run.Mem) })
	if err != nil {
		return 0, fmt.Errorf("%s on %s unroll %d: %w", r.Bench.Name, r.Arch, r.Unroll, err)
	}
	x.outs = append(x.outs, simOutput{Req: i, Mem: run.Mem, Cycles: st.Cycles, Time: st.Time})
	return 1, nil
}

func (x *simInst) check(p *pass) {
	for _, o := range x.outs {
		r := x.reqs[o.Req]
		for _, name := range x.cases[r.Bench.Name].Outputs {
			if !reflect.DeepEqual(o.Mem[name], x.golden[r.Bench.Name][name]) {
				p.fail("%s on %s unroll %d: memory %q differs from the golden model", r.Bench.Name, r.Arch, r.Unroll, name)
			} else if !reflect.DeepEqual(o.Mem[name], x.interp[r.Bench.Name][name]) {
				p.fail("%s on %s unroll %d: memory %q differs from the interpreter", r.Bench.Name, r.Arch, r.Unroll, name)
			}
		}
	}
	x.all = append(x.all[:0], x.outs...)
	for i := range x.all {
		x.all[i].Mem = nil
	}
}

func (x *simInst) finish(p *pass) (fit, cycles float64) {
	cost := machine.DefaultCostModel
	base := map[string]float64{}
	best := map[string]float64{}
	var cyc []float64
	for _, o := range x.all {
		r := x.reqs[o.Req]
		cyc = append(cyc, float64(o.Cycles))
		if r.Arch == machine.Baseline {
			base[r.Bench.Name] = o.Time
		}
		if cur, ok := best[r.Bench.Name]; cost.Cost(r.Arch) <= costCap && (!ok || o.Time < cur) {
			best[r.Bench.Name] = o.Time
		}
	}
	var speedups []float64
	for name, b := range base {
		speedups = append(speedups, b/best[name])
	}
	return geomean(speedups), geomean(cyc)
}

func (x *simInst) replayInputs() replayInputs {
	seen := map[string]bool{}
	in := replayInputs{Archs: paperMachines(), Width: exploreWidth}
	for _, r := range x.reqs {
		if !seen[r.Bench.Name] {
			seen[r.Bench.Name] = true
			in.Kernels = append(in.Kernels, r.Bench)
		}
	}
	return in
}

func (x *simInst) close() {}
