package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"time"

	"customfit/internal/bench"
	"customfit/internal/cc"
	"customfit/internal/core"
	"customfit/internal/ddg"
	"customfit/internal/dist"
	"customfit/internal/dse"
	"customfit/internal/evcache"
	"customfit/internal/fleetcache"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/ops"
	"customfit/internal/opt"
	"customfit/internal/regalloc"
	"customfit/internal/sched"
	"customfit/internal/search"
	"customfit/internal/sim"
	"customfit/internal/vliw"
)

// replayInputs is what a workload hands the layer replay: the kernels
// and machines its ops were made of, and the exploration it delivered
// when it makes one.
type replayInputs struct {
	Kernels []*bench.Benchmark
	Archs   []machine.Arch
	Width   int
	Results *dse.Results
}

// Time boxes of the replay's two sampled parts. A cold cell costs between
// 2 ms and 2 s, so the sample is cut by time, not by count.
const (
	replayCells    = 64
	oneshotBox     = 1500 * time.Millisecond
	evaluateBox    = 2500 * time.Millisecond
	fleetWarmRuns  = 3
	evcacheEntries = 2048
)

// ledger collects the replay's samples: per-call times by metric name,
// and the counts the means and shares are made of.
type ledger struct {
	rec    *runRecord
	tr     *recorder
	in     replayInputs
	cfg    config
	times  map[string][]float64 // µs per call
	counts map[string][]float64
	fns    map[string]*ir.Func // lowered IR per kernel, from frontend
	nextOp int
}

func (l *ledger) time(name string, f func()) time.Duration {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	l.times[name] = append(l.times[name], us(d))
	return d
}

// span is time plus a span under parent named like the metric's layer
// function.
func (l *ledger) span(parent *spanRef, name string, f func()) time.Duration {
	sp := parent.child(name)
	d := l.time(name, f)
	sp.end()
	return d
}

func (l *ledger) count(name string, v float64) { l.counts[name] = append(l.counts[name], v) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// medianUs reports the median per-call time of a layer function under
// the metric's name.
func (l *ledger) medianUs(metric, timer string) { l.rec.set(metric, median(l.times[timer]), "us") }

// replay runs the same inputs through the layers' public functions, one
// layer at a time, and fills in every per-layer metric.
func replay(rec *runRecord, tr *recorder, in replayInputs, cfg config) error {
	l := &ledger{rec: rec, tr: tr, in: in, cfg: cfg, times: map[string][]float64{}, counts: map[string][]float64{}, fns: map[string]*ir.Func{}}
	steps := []struct {
		name string
		run  func() error
	}{
		{"frontend", l.frontend},
		{"oneshot", l.oneshot},
		{"evaluate", l.evaluate},
		{"ops", l.ops},
		{"machine", l.machine},
		{"evcache", l.evcache},
		{"search", l.search},
		{"grid", l.grid},
	}
	for _, s := range steps {
		if err := s.run(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	worst := 0.0
	for _, parent := range []string{"oneshot.op", "dse.evaluate_cold", "sched.first_iteration"} {
		rows, un := budget(tr.spans, parent)
		rec.Budget[parent] = append(rows, budgetRow{Name: "(unattributed)", Share: un})
		if parent != "sched.first_iteration" && un > worst {
			worst = un
		}
	}
	rec.set("ledger.unattributed_share", worst, "ratio")
	return nil
}

// prepared is one kernel at one unroll factor, ready for the backend:
// what dse keeps per (benchmark, unroll).
type prepared struct {
	kernel *sched.Prepared
	visits map[string]int64
	err    error
}

// prepare builds the prepared kernel and its block visit counts the way
// dse's evaluator does: opt.Prepare, then one reference run of the
// interpreter over the standard workload.
func prepare(fn *ir.Func, b *bench.Benchmark, u, width int) *prepared {
	g, err := opt.Prepare(fn, u)
	if err != nil {
		return &prepared{err: err}
	}
	env := b.NewCase(width, 1).Clone().Env()
	env.Visits = map[string]int64{}
	if _, err := ir.Interp(g, env); err != nil {
		return &prepared{err: err}
	}
	return &prepared{kernel: sched.NewPrepared(g), visits: env.Visits}
}

// frontend times cc, ir and opt per kernel and per unroll factor.
func (l *ledger) frontend() error {
	tokens, lexTime := 0, time.Duration(0)
	for _, b := range l.in.Kernels {
		var toks []cc.Token
		var file *cc.File
		var fns []*ir.Func
		var err error
		lexTime += l.time("cc.lex", func() { toks, err = cc.Lex(b.Source) })
		if err != nil {
			return err
		}
		tokens += len(toks)
		l.time("cc.parse", func() { file, err = cc.Parse(b.Source) })
		if err != nil {
			return err
		}
		l.time("cc.check", func() { err = cc.Check(file) })
		if err != nil {
			return err
		}
		l.time("cc.lower", func() { fns, err = cc.LowerFile(file) })
		if err != nil {
			return err
		}
		fn := fns[0]
		l.fns[b.Name] = fn
		l.count("ir.instrs_lowered", float64(fn.NumInstrs()))
		env := b.NewCase(l.in.Width, 1).Clone().Env()
		l.time("ir.interp", func() { _, err = ir.Interp(fn, env) })
		if err != nil {
			return err
		}
		g := fn.Clone()
		l.time("opt.optimize", func() { err = opt.Optimize(g) })
		if err != nil {
			return err
		}
		l.count("opt.instrs_after_opt", float64(g.NumInstrs()))
		for _, u := range dse.UnrollFactors {
			l.time("opt.prepare", func() { _, _ = opt.Prepare(fn, u) }) // an unroll over budget is an answer, not a fault
			if u == 1 || g.Loop == nil {
				continue
			}
			h := g.Clone()
			var uerr error
			l.time("opt.unroll", func() { uerr = opt.Unroll(h, u) })
			if uerr == nil {
				l.count("opt.instrs_after_unroll", float64(h.NumInstrs()))
			}
		}
	}
	l.rec.set("cc.lex_mtokens_per_s", float64(tokens)/lexTime.Seconds()/1e6, "1/s")
	l.medianUs("cc.parse_us", "cc.parse")
	l.medianUs("cc.check_us", "cc.check")
	l.medianUs("cc.lower_us", "cc.lower")
	l.medianUs("ir.interp_us", "ir.interp")
	l.rec.set("ir.instrs_lowered", mean(l.counts["ir.instrs_lowered"]), "count")
	l.medianUs("opt.optimize_us", "opt.optimize")
	l.medianUs("opt.unroll_us", "opt.unroll")
	l.medianUs("opt.prepare_us", "opt.prepare")
	l.rec.set("opt.instrs_after_opt", mean(l.counts["opt.instrs_after_opt"]), "count")
	l.rec.set("opt.instrs_after_unroll", mean(l.counts["opt.instrs_after_unroll"]), "count")
	return nil
}

// oneshot replays sampled requests of the oneshot_sim kind through the
// functions core.ParseKernel, Kernel.Compile and Compiled.Run compose,
// and asserts the facade still composes exactly those.
func (l *ledger) oneshot() error {
	rng := rand.New(rand.NewSource(l.cfg.Seed))
	cells := sampleCells(rng, l.in.Kernels, l.in.Archs, replayCells)
	var hostTime time.Duration
	var cycles, simOps int64
	start := time.Now()
	for i, c := range cells {
		if i >= 4 && time.Since(start) > oneshotBox/time.Duration(l.cfg.Scale) {
			break
		}
		u := requestUnroll(c.Arch, i)
		k, err := core.ParseKernel(c.Bench.Source)
		if err != nil {
			return err
		}
		compiled, err := k.Compile(c.Arch, u)
		if err != nil {
			if errors.Is(err, sched.ErrNoFit) {
				continue // the answer for this machine; nothing to replay
			}
			return err
		}
		kase := c.Bench.NewCase(simWidth, l.cfg.Seed)
		golden := kase.Golden()
		run := kase.Clone()
		want, err := compiled.Run(run.Args, run.Mem)
		if err != nil {
			return err
		}

		var file *cc.File
		var fns []*ir.Func
		var g *ir.Func
		var prep *sched.Prepared
		var res *sched.Result
		var st *sim.Stats
		run = kase.Clone()
		op := l.tr.start(nil, "oneshot.op", l.nextOp)
		l.nextOp++
		l.span(op, "cc.parse", func() { file, err = cc.Parse(c.Bench.Source) })
		if err == nil {
			l.span(op, "cc.check", func() { err = cc.Check(file) })
		}
		if err == nil {
			l.span(op, "cc.lower", func() { fns, err = cc.LowerFile(file) })
		}
		if err == nil {
			l.span(op, "opt.optimize", func() { g = fns[0].Clone(); err = opt.Optimize(g) })
		}
		if err == nil && u > 1 && g.Loop != nil {
			l.span(op, "opt.unroll", func() { err = opt.Unroll(g, u) })
		}
		if err == nil {
			l.span(op, "sched.prepared_new", func() { prep = sched.NewPrepared(g) })
			l.span(op, "sched.compile", func() { res, err = sched.CompilePrepared(nil, prep, c.Arch, nil) })
		}
		if err == nil {
			l.span(op, "sched.validate", func() { err = sched.Validate(res.Prog) })
		}
		if err == nil {
			hostTime += l.span(op, "sim.run", func() { st, err = sim.Run(res.Prog, run.Env()) })
		}
		same := true
		if err == nil {
			l.span(op, "bench.compare", func() {
				for _, name := range kase.Outputs {
					same = same && reflect.DeepEqual(run.Mem[name], golden[name])
				}
			})
		}
		op.end()
		switch {
		case err != nil:
			return fmt.Errorf("%s on %s unroll %d: %w", c.Bench.Name, c.Arch, u, err)
		case !same:
			return fmt.Errorf("%s on %s unroll %d: replayed output differs from the golden model", c.Bench.Name, c.Arch, u)
		case st.Cycles != want.Cycles || res.Prog.BundleCount() != compiled.Prog.BundleCount():
			return fmt.Errorf("%s on %s unroll %d: the replay (%d cycles, %d bundles) is no longer what the facade composes (%d cycles, %d bundles)",
				c.Bench.Name, c.Arch, u, st.Cycles, res.Prog.BundleCount(), want.Cycles, compiled.Prog.BundleCount())
		}
		cycles += st.Cycles
		simOps += st.Ops
	}
	l.medianUs("sim.run_us", "sim.run")
	l.rec.set("sim.mcycles_per_s", float64(cycles)/hostTime.Seconds()/1e6, "1/s")
	l.rec.set("sim.mops_per_s", float64(simOps)/hostTime.Seconds()/1e6, "1/s")
	l.medianUs("sched.prepared_new_us", "sched.prepared_new")
	l.medianUs("sched.validate_us", "sched.validate")
	return nil
}

// evaluate replays sampled (kernel, machine) cells of the explore kind:
// dse's unroll sweep rebuilt from sched.CompilePrepared and
// Program.StaticCycles, checked against the evaluator, then the backend's
// stage functions once per cell beside the whole compile.
func (l *ledger) evaluate() error {
	rng := rand.New(rand.NewSource(l.cfg.Seed + 1))
	cells := sampleCells(rng, l.in.Kernels, l.in.Archs, replayCells)
	cold := dse.NewEvaluator()
	cold.Width = l.in.Width
	cold.DisableMemo, cold.DisableDelta = true, true
	def := dse.NewEvaluator()
	def.Width = l.in.Width
	preps := map[string]map[int]*prepared{}
	for _, b := range l.in.Kernels {
		// Fill both evaluators' prepared-kernel caches without compiling,
		// so the timed evaluations below are backend work only.
		cold.LowerBoundCycles(b, machine.Baseline)
		def.LowerBoundCycles(b, machine.Baseline)
		preps[b.Name] = map[int]*prepared{}
	}
	prep := func(b *bench.Benchmark, u int) *prepared {
		if p := preps[b.Name][u]; p != nil {
			return p
		}
		p := prepare(l.fns[b.Name], b, u, l.in.Width)
		preps[b.Name][u] = p
		return p
	}
	sc := sched.NewScratch()
	var done []cell
	nofit, compiles := 0, 0
	start := time.Now()
	for i, c := range cells {
		if i >= 4 && time.Since(start) > evaluateBox/time.Duration(l.cfg.Scale) {
			break
		}
		done = append(done, c)
		var want dse.Evaluation
		l.time("dse.evaluate_cold", func() { want = cold.EvaluateScratch(c.Bench, c.Arch, sc) })

		for _, u := range dse.UnrollFactors {
			prep(c.Bench, u) // built outside the replayed sweep, as dse's cache would have it
		}
		got := dse.Evaluation{Arch: c.Arch, Bench: c.Bench.Name, Failed: true}
		compiledAtOne := false
		root := l.tr.start(nil, "dse.evaluate_cold", l.nextOp)
		l.nextOp++
		for _, u := range dse.UnrollFactors {
			p := prep(c.Bench, u)
			if p.err != nil {
				break
			}
			var res *sched.Result
			var err error
			l.span(root, "sched.compile_cold", func() { res, err = sched.CompilePrepared(nil, p.kernel, c.Arch, sc) })
			compiles++
			if err != nil {
				if errors.Is(err, sched.ErrNoFit) {
					nofit++
				}
				break
			}
			compiledAtOne = true
			var cyc int64
			l.span(root, "vliw.static_cycles", func() { cyc = res.Prog.StaticCycles(p.visits) })
			if got.Failed || cyc < got.Cycles {
				got.Failed, got.Unroll, got.Cycles, got.Spilled = false, u, cyc, res.Spilled
			}
			l.count("sched.iterations", float64(res.Iterations))
			l.count("sched.spilled", float64(res.Spilled))
			l.count("vliw.bundles", float64(res.Prog.BundleCount()))
			l.count("vliw.static_ipc", float64(res.Prog.OpCount())/float64(res.Prog.BundleCount()))
			if res.Spilled > 0 {
				break
			}
		}
		root.end()
		if !got.Failed {
			got.Time = float64(got.Cycles) * machine.DefaultCycleModel.Derate(c.Arch)
		}
		if !sameEvaluation(got, want) {
			return fmt.Errorf("%s on %s: the replayed sweep gives %+v, dse.Evaluate gives %+v", c.Bench.Name, c.Arch, got, want)
		}
		if compiledAtOne {
			l.stages(prep(c.Bench, 1), c.Arch)
		}
	}
	// The evaluator as the explorer configures it: first visits pay the
	// backend through delta compilation, second visits hit the memo.
	for _, c := range done {
		l.time("dse.evaluate_default", func() { def.EvaluateScratch(c.Bench, c.Arch, sc) })
	}
	for _, c := range done {
		l.time("dse.evaluate_memo_hit", func() { def.EvaluateScratch(c.Bench, c.Arch, sc) })
	}
	if err := l.deltaRing(prep, sc); err != nil {
		return err
	}
	sigs := map[string]bool{}
	for _, a := range l.in.Archs {
		sigs[dse.SigKey(a)] = true
	}
	l.medianUs("dse.evaluate_cold_us", "dse.evaluate_cold")
	l.medianUs("dse.evaluate_default_us", "dse.evaluate_default")
	l.medianUs("dse.evaluate_memo_hit_us", "dse.evaluate_memo_hit")
	l.rec.set("dse.sig_classes_share", float64(len(sigs))/float64(len(l.in.Archs)), "ratio")
	l.medianUs("sched.compile_cold_us", "sched.compile_cold")
	l.medianUs("sched.partition_us", "sched.partition")
	l.medianUs("sched.schedule_us", "sched.schedule")
	l.medianUs("sched.lower_bound_us", "sched.lower_bound")
	l.rec.set("sched.iterations_mean", mean(l.counts["sched.iterations"]), "count")
	l.rec.set("sched.spilled_mean", mean(l.counts["sched.spilled"]), "count")
	l.rec.set("sched.nofit_share", float64(nofit)/float64(compiles), "ratio")
	l.medianUs("regalloc.allocate_us", "regalloc.allocate")
	l.rec.set("regalloc.first_fit_share", mean(l.counts["regalloc.fits"]), "ratio")
	l.medianUs("ddg.skeleton_us", "ddg.skeleton")
	l.medianUs("ddg.build_us", "ddg.build")
	l.medianUs("vliw.static_cycles_us", "vliw.static_cycles")
	l.rec.set("vliw.bundles_mean", mean(l.counts["vliw.bundles"]), "count")
	l.rec.set("vliw.static_ipc_mean", mean(l.counts["vliw.static_ipc"]), "count")
	return nil
}

// stages times the backend's stage functions on the first spill
// iteration of one cell at unroll 1, the way sched.CompilePrepared
// strings them together.
func (l *ledger) stages(p *prepared, arch machine.Arch) {
	work := p.kernel.F.Clone()
	if !arch.Ops.Empty() {
		ops.Rewrite(work, arch.Ops)
	}
	var g *ir.Func
	var pl *sched.Placement
	var prog *vliw.Program
	var err error
	root := l.tr.start(nil, "sched.first_iteration", l.nextOp)
	l.nextOp++
	l.span(root, "sched.partition", func() { g, pl = sched.PartitionClone(work, arch) })
	l.span(root, "sched.schedule", func() { prog, err = sched.ScheduleWithCap(g, arch, pl, arch.RegsPC()-2) })
	if err == nil {
		var ra *regalloc.Result
		l.span(root, "regalloc.allocate", func() { ra = regalloc.Allocate(prog) })
		fits := 0.0
		if ra.Fits {
			fits = 1
		}
		l.count("regalloc.fits", fits)
	}
	root.end()
	// Inside sched.schedule, and so beside it here: the dependence graph
	// of every block.
	for _, blk := range g.Blocks {
		l.time("ddg.skeleton", func() { ddg.BuildSkeleton(blk, arch) })
		l.time("ddg.build", func() { ddg.Build(blk, arch) })
	}
	l.time("sched.lower_bound", func() { sched.LowerBound(p.kernel, arch) })
}

// deltaRing times sched.CompilePreparedDelta on the second lap of a ring
// of one-parameter neighbours: the move the search strategies make.
func (l *ledger) deltaRing(prep func(*bench.Benchmark, int) *prepared, sc *sched.Scratch) error {
	// The smallest kernel, so the ring's first, cold lap is cheap.
	var small *bench.Benchmark
	for _, b := range l.in.Kernels {
		if p := prep(b, 1); p.err == nil && (small == nil || p.kernel.F.NumInstrs() < prep(small, 1).kernel.F.NumInstrs()) {
			small = b
		}
	}
	if small == nil {
		return fmt.Errorf("no kernel prepares at unroll 1")
	}
	inSpace := map[machine.Arch]bool{}
	for _, a := range machine.FullSpace() {
		inSpace[a] = true
	}
	start := l.in.Archs[0]
	start.Ops = machine.OpConfig{}
	ring := append([]machine.Arch{start}, search.Neighbors(start, inSpace)...)
	p := prep(small, 1)
	for lap := 0; lap < 2; lap++ {
		for _, a := range ring {
			var err error
			run := func() { _, err = sched.CompilePreparedDelta(nil, p.kernel, a, sc) }
			if lap == 0 {
				run()
			} else {
				l.time("sched.compile_delta", run)
			}
			if err != nil && !errors.Is(err, sched.ErrNoFit) {
				return err
			}
		}
	}
	l.medianUs("sched.compile_delta_us", "sched.compile_delta")
	return nil
}

// ops times the miner over the kernels and the rewriter per prepared
// kernel, with the pinned catalog.
func (l *ledger) ops() error {
	d := l.time("ops.mine", func() { _, _ = core.AutoOps(l.in.Kernels, l.in.Width, 0) }) // an empty catalog is an answer
	l.rec.set("ops.mine_ms", ms(d), "ms")
	set, err := machine.ParseOpCatalog(pinnedOps)
	if err != nil {
		return err
	}
	cfg := machine.OpConfig{Set: set, Mask: set.FullMask()}
	for _, b := range l.in.Kernels {
		for _, u := range []int{1, 2} {
			g, err := opt.Prepare(l.fns[b.Name], u)
			if err != nil {
				continue
			}
			n := 0
			l.time("ops.rewrite", func() { n = ops.Rewrite(g, cfg) })
			l.count("ops.rewritten", float64(n))
		}
	}
	l.medianUs("ops.rewrite_us", "ops.rewrite")
	l.rec.set("ops.rewritten_instrs", mean(l.counts["ops.rewritten"]), "count")
	return nil
}

var sink float64 // keeps the timed model calls from being optimised away

func (l *ledger) machine() error {
	const rounds = 200
	archs := l.in.Archs
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, a := range archs {
			sink += machine.DefaultCostModel.Cost(a)
		}
	}
	l.rec.set("machine.cost_ns", float64(time.Since(t0).Nanoseconds())/float64(rounds*len(archs)), "ns")
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for _, a := range archs {
			sink += machine.DefaultCycleModel.Derate(a)
		}
	}
	l.rec.set("machine.derate_ns", float64(time.Since(t0).Nanoseconds())/float64(rounds*len(archs)), "ns")
	var full []float64
	for r := 0; r < 5; r++ {
		t0 = time.Now()
		sink += float64(len(machine.FullSpace()))
		full = append(full, ms(time.Since(t0)))
	}
	l.rec.set("machine.fullspace_ms", median(full), "ms")
	return nil
}

// evcache times the disk cache's write side and read side on synthetic
// entries in four shards.
func (l *ledger) evcache() error {
	dir, err := os.MkdirTemp(l.cfg.TmpDir, "evcache")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	shards := []string{"s0", "s1", "s2", "s3"}
	key := func(i int) (string, string) { return shards[i%len(shards)], fmt.Sprintf("probe:%06d", i) }
	c, err := evcache.Open(dir)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i := 0; i < evcacheEntries; i++ {
		s, k := key(i)
		c.Put(s, k, evcache.Entry{Unroll: 1 << (i % 4), Cycles: int64(10000 + i), Runs: 4})
	}
	l.rec.set("evcache.put_ns", float64(time.Since(t0).Nanoseconds())/evcacheEntries, "ns")
	t0 = time.Now()
	if err := c.Flush(); err != nil {
		return err
	}
	l.rec.set("evcache.flush_ms", ms(time.Since(t0)), "ms")
	l.rec.set("evcache.bytes_per_entry", float64(c.Stats().BytesWrit)/evcacheEntries, "count")
	if err := c.Close(); err != nil {
		return err
	}
	t0 = time.Now()
	if c, err = evcache.Open(dir); err != nil {
		return err
	}
	defer c.Close()
	for i := range shards { // the first Get of a shard loads it from disk
		s, k := key(i)
		if _, ok := c.Get(s, k); !ok {
			return fmt.Errorf("entry %s/%s was not persisted", s, k)
		}
	}
	l.rec.set("evcache.open_load_ms", ms(time.Since(t0)), "ms")
	t0 = time.Now()
	for i := 0; i < evcacheEntries; i++ {
		s, k := key(i)
		if _, ok := c.Get(s, k); !ok {
			return fmt.Errorf("entry %s/%s was not persisted", s, k)
		}
	}
	l.rec.set("evcache.get_hit_ns", float64(time.Since(t0).Nanoseconds())/evcacheEntries, "ns")
	return nil
}

// search counts what two short strategies ask of the evaluator.
func (l *ledger) search() error {
	b := l.in.Kernels[0]
	for _, k := range benches("E", "D", "G", "F") { // cheapest first
		for _, have := range l.in.Kernels {
			if have == k {
				b = k
			}
		}
	}
	o, err := newSearchObjective(b, false)
	if err != nil {
		return err
	}
	calls := 0
	obj := o.objective(nil, &calls)
	ctx := context.Background()
	space := machine.FullSpace()
	space = space[:l.cfg.scaled(len(space), 1)]
	hc, err := search.HillClimbCtx(ctx, space, obj, 2, l.cfg.Seed, nil)
	if err != nil {
		return err
	}
	an, err := search.AnnealCtx(ctx, space, obj, 60, l.cfg.Seed)
	if err != nil {
		return err
	}
	l.rec.set("search.dse_calls", float64(calls), "count")
	l.rec.set("search.evals_per_strategy_mean", float64(hc.Evaluations+an.Evaluations)/2, "count")
	return nil
}

// grid explores the workload's machines against its cheap kernels once
// cold and then warm, locally and through an in-process fleet: selection
// and encoding, the warm cache's hit share, and the serve, dist and
// fleetcache round trips.
func (l *ledger) grid() error {
	ctx := context.Background()
	var kernels []*bench.Benchmark
	for _, b := range l.in.Kernels {
		switch b.Name {
		case "D", "E", "F", "G":
			kernels = append(kernels, b)
		}
	}
	if len(kernels) == 0 {
		kernels = l.in.Kernels[:1]
	}
	// Plain machines, each once: the grid here is about the cache and the
	// fleet, and the op axis would only double it.
	var archs []machine.Arch
	seen := map[machine.Arch]bool{}
	for _, a := range l.in.Archs {
		a.Ops = machine.OpConfig{}
		if !seen[a] {
			seen[a] = true
			archs = append(archs, a)
		}
	}
	dir, err := os.MkdirTemp(l.cfg.TmpDir, "grid")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := core.ExploreOptions{Benchmarks: kernels, Archs: archs, Width: l.in.Width, Parallelism: parallelism, CacheDir: dir}
	cold, err := core.Explore(ctx, opts)
	if err != nil {
		return err
	}
	res := l.in.Results
	if res == nil {
		res = cold
	}
	l.rec.set("dse.compile_busy_s", res.Stats.Phases.Compile.Seconds(), "s")
	l.rec.set("dse.reference_busy_s", res.Stats.Phases.Simulate.Seconds(), "s")
	l.rec.set("dse.runs_per_eval", float64(res.Stats.Runs)/float64(len(res.Benches)*len(res.Archs)), "count")
	d := l.time("dse.select", func() {
		res.SelectConstrained(costCap, fitRange)
		resultsQuality(res)
	})
	l.rec.set("dse.select_ms", ms(d), "ms")
	data, err := res.JSON()
	if err != nil {
		return err
	}
	l.rec.set("dse.results_kb", float64(len(data))/1024, "KiB")

	var local []float64
	for i := 0; i < fleetWarmRuns; i++ {
		t0 := time.Now()
		if _, err := core.Explore(ctx, opts); err != nil {
			return err
		}
		local = append(local, ms(time.Since(t0)))
	}
	cache, err := evcache.Open(dir)
	if err != nil {
		return err
	}
	shared := opts
	shared.CacheDir, shared.Cache = "", cache
	_, err = core.Explore(ctx, shared)
	st := cache.Stats()
	cache.Close()
	if err != nil {
		return err
	}
	l.rec.set("evcache.hit_share", float64(st.Hits)/float64(st.Hits+st.Misses), "ratio")
	return l.fleet(kernels, archs, median(local))
}

// fleet explores the grid through a hub and two workers, once cold and
// then warm, and reads the serve, dist and fleetcache metrics off the
// coordinator's round trips. localWarmMs is the same warm grid explored
// locally: the base of the fleet tax.
func (l *ledger) fleet(kernels []*bench.Benchmark, archs []machine.Arch, localWarmMs float64) error {
	ctx := context.Background()
	hubDir, err := os.MkdirTemp(l.cfg.TmpDir, "gridhub")
	if err != nil {
		return err
	}
	defer os.RemoveAll(hubDir)
	f, err := startFleet(hubDir)
	if err != nil {
		return err
	}
	defer f.stop()
	tr := newTimingTransport()
	dopts := fleetOptions(f, tr, kernels, archs)
	if _, err := dist.Explore(ctx, dopts); err != nil {
		return err
	}
	f.syncRemote()
	tr.take()
	var fleetMs []float64
	for i := 0; i < fleetWarmRuns; i++ {
		t0 := time.Now()
		if _, err := dist.Explore(ctx, dopts); err != nil {
			return err
		}
		fleetMs = append(fleetMs, ms(time.Since(t0)))
	}
	l.httpMetrics(tr.take(), fleetWarmRuns)
	l.rec.set("dist.explore_ms", median(fleetMs), "ms")
	l.rec.set("dist.fleet_tax_ratio", median(fleetMs)/localWarmMs, "ratio")

	// The hub's cache endpoints, as a worker's read-through and
	// write-behind see them.
	cl := fleetcache.New(f.hub.URL, nil)
	class := dse.KernelClass(kernels[0], l.in.Width, 1)
	n := min(len(archs), 64)
	var keys []string
	for _, a := range archs[:n] {
		keys = append(keys, dse.CacheKey(class, a))
	}
	for _, k := range keys {
		var err error
		l.time("fleetcache.lookup", func() { _, _, err = cl.Lookup(kernels[0].Name, k) })
		if err != nil {
			return err
		}
	}
	l.medianUs("fleetcache.lookup_us", "fleetcache.lookup")
	recs := make([]evcache.Record, n)
	for i := range recs {
		recs[i] = evcache.Record{Key: fmt.Sprintf("probe:%d", i), Entry: evcache.Entry{Unroll: 1, Cycles: int64(1000 + i), Runs: 1}}
	}
	t0 := time.Now()
	if err := cl.StoreBatch("probe", recs); err != nil {
		return err
	}
	l.rec.set("fleetcache.store_us_per_entry", us(time.Since(t0))/float64(n), "us")
	t0 = time.Now()
	if _, err := cl.Missing(kernels[0].Name, keys); err != nil {
		return err
	}
	l.rec.set("fleetcache.missing_us_per_key", us(time.Since(t0))/float64(n), "us")
	return nil
}

// httpMetrics turns the coordinator's round trips of `runs` warm fleet
// explorations into the serve and dist metrics.
func (l *ledger) httpMetrics(calls []httpCall, runs int) {
	type job struct {
		submit, done time.Time
		polls, bytes int
	}
	jobs := map[string]*job{}
	var submitMs, pollUs []float64
	var total time.Duration
	for _, c := range calls {
		total += c.Dur
		switch c.Route {
		case "POST /v1/explore":
			submitMs = append(submitMs, ms(c.Dur))
			jobs[c.Job] = &job{submit: c.Start}
		case "GET /v1/jobs/{id}":
			pollUs = append(pollUs, us(c.Dur))
			if j := jobs[c.Job]; j != nil {
				j.polls++
				j.done = c.Start.Add(c.Dur)
				j.bytes = max(j.bytes, c.Bytes)
			}
		}
	}
	var toDone []float64
	polls, bytes := 0, 0
	for _, j := range jobs {
		toDone = append(toDone, ms(j.done.Sub(j.submit)))
		polls += j.polls
		bytes += j.bytes
	}
	l.rec.set("serve.submit_ms", median(submitMs), "ms")
	l.rec.set("serve.submit_to_done_ms", median(toDone), "ms")
	l.rec.set("serve.poll_us", median(pollUs), "us")
	l.rec.set("serve.polls_per_job", float64(polls)/float64(len(jobs)), "count")
	l.rec.set("serve.result_kb_per_job", float64(bytes)/1024/float64(len(jobs)), "KiB")
	l.rec.set("serve.http_requests_per_run", float64(len(calls))/float64(runs), "count")
	l.rec.set("dist.http_s_per_run", total.Seconds()/float64(runs), "s")
}
