package dse

import (
	"testing"

	"customfit/internal/bench"
	"customfit/internal/machine"
	"customfit/internal/obs"
	"customfit/internal/sched"
)

// exploreBenchArchs is the exploration benchmarks' architecture subset:
// the clustered, signature-dense region of the full space (8- and
// 16-ALU machines with large register files), which is where the
// backend spends most of its time on a real full-space run and where
// cluster arrangements collapse onto shared backend signatures.
func exploreBenchArchs() []machine.Arch {
	var out []machine.Arch
	for _, a := range machine.FullSpace() {
		if a.ALUs >= 8 && a.Regs >= 256 && a.L2Lat != 8 {
			out = append(out, a)
		}
	}
	return out
}

// BenchmarkEvaluate measures the per-evaluation backend cost (unroll
// sweep, partition, schedule, allocate) with the prepared-IR cache warm,
// cycling through distinct architectures so every iteration performs
// real backend work. Signature memoization and delta compilation are
// both disabled, so every block is scheduled and every program allocated
// — the baseline BenchmarkEvaluateDelta is measured against. What the
// kernel's partition classes keep is reused as every compile reuses it:
// the lowered and partitioned IR, its liveness and its skeletons, built
// once per class. A reused Scratch arena matches a sweep's steady state.
//
// Beside the timings it reports the work one lap over the machines
// does, which repeats exactly and so is what `make bench-diff` can hold
// to the last unit on any host: backend runs and static cycles per
// evaluation, and the scheduler's own counts — blocks, spill rewrites,
// and the ready-set candidates it visited for the operations it placed
// (the scan loop's waste ratio; the visit sequence is part of the
// schedule's bit-identity, so the count may not move). Those come from
// one more lap after the clock has stopped, because the sched.* counters
// only count under an installed collector and the timed loop must not
// pay for one.
func BenchmarkEvaluate(b *testing.B) {
	ev := NewEvaluator()
	ev.Width = 48
	ev.DisableMemo = true
	ev.DisableDelta = true
	bm := bench.ByName("G")
	archs := exploreBenchArchs()
	for _, u := range UnrollFactors {
		ev.prepare(nil, bm, u)
	}
	sc := sched.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.EvaluateScratch(bm, archs[i%len(archs)], sc)
	}
	b.StopTimer()
	col := obs.NewCollector()
	obs.Install(col)
	before := ev.Compilations.Load()
	var cycles int64
	for _, a := range archs {
		cycles += ev.EvaluateScratch(bm, a, sc).Cycles
	}
	runs := ev.Compilations.Load() - before
	obs.Install(nil)
	lap := float64(len(archs))
	b.ReportMetric(float64(runs)/lap, "runs/op")
	b.ReportMetric(float64(cycles)/lap, "cycles/op")
	b.ReportMetric(float64(col.Counter("sched.blocks_scheduled").Value()), "blocks_scheduled/lap")
	b.ReportMetric(float64(col.Counter("sched.spill_rewritten").Value()), "spill_rewritten/lap")
	b.ReportMetric(float64(col.Counter("sched.scan_visits").Value()), "scan_visits/lap")
	b.ReportMetric(float64(col.Counter("sched.ops_placed").Value()), "ops_placed/lap")
}

// BenchmarkEvaluateStarved is BenchmarkEvaluate where the cold path
// burns: BenchmarkEvaluate's machines have 256 registers or more and
// never spill, these are every eighth of the full space's machines with
// at most 32 registers per cluster, under A and H (alternating, one
// evaluation an op), so the pressure throttle, forced placements, the
// spill loop and the in-order fallback all run.
func BenchmarkEvaluateStarved(b *testing.B) {
	ev := NewEvaluator()
	ev.Width = 48
	ev.DisableMemo = true
	ev.DisableDelta = true
	bms := []*bench.Benchmark{bench.ByName("A"), bench.ByName("H")}
	var archs []machine.Arch
	starved := 0
	for _, a := range machine.FullSpace() {
		if a.RegsPC() <= 32 {
			if starved%8 == 0 {
				archs = append(archs, a)
			}
			starved++
		}
	}
	for _, bm := range bms {
		for _, u := range UnrollFactors {
			ev.prepare(nil, bm, u)
		}
	}
	sc := sched.NewScratch()
	lap := len(bms) * len(archs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.EvaluateScratch(bms[i%len(bms)], archs[i%lap/len(bms)], sc)
	}
	b.StopTimer()
	col := obs.NewCollector()
	obs.Install(col)
	before := ev.Compilations.Load()
	var cycles int64
	for i := 0; i < lap; i++ {
		cycles += ev.EvaluateScratch(bms[i%len(bms)], archs[i/len(bms)], sc).Cycles
	}
	runs := ev.Compilations.Load() - before
	obs.Install(nil)
	b.ReportMetric(float64(runs)/float64(lap), "runs/op")
	b.ReportMetric(float64(cycles)/float64(lap), "cycles/op")
	for _, c := range []string{"blocks_scheduled", "spill_rewritten", "scan_visits", "ops_placed"} {
		b.ReportMetric(float64(col.Counter("sched."+c).Value()), c+"/lap")
	}
}

// BenchmarkEvaluateLosing is BenchmarkEvaluate on sweeps whose last
// compile spills and loses to the smaller unroll the sweep already
// holds — A on (4 2 256 1 4 4) and (8 4 512 1 4 4), GEF on
// (8 2 128 1 8 4), one evaluation an op — the compiles the sweep's
// incumbent stops (sched.Incumbent). Beside runs and cycles it reports
// the spill rewrites and the stopped compiles (dse.compile_beaten) of
// one lap, which repeat exactly.
func BenchmarkEvaluateLosing(b *testing.B) {
	ev := NewEvaluator()
	ev.Width = 48
	ev.DisableMemo = true
	ev.DisableDelta = true
	cells := []struct {
		bench string
		arch  machine.Arch
	}{
		{"A", machine.Arch{ALUs: 4, MULs: 2, Regs: 256, L2Ports: 1, L2Lat: 4, Clusters: 4}},
		{"A", machine.Arch{ALUs: 8, MULs: 4, Regs: 512, L2Ports: 1, L2Lat: 4, Clusters: 4}},
		{"GEF", machine.Arch{ALUs: 8, MULs: 2, Regs: 128, L2Ports: 1, L2Lat: 8, Clusters: 4}},
	}
	for _, c := range cells {
		for _, u := range UnrollFactors {
			ev.prepare(nil, bench.ByName(c.bench), u)
		}
	}
	sc := sched.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cells[i%len(cells)]
		ev.EvaluateScratch(bench.ByName(c.bench), c.arch, sc)
	}
	b.StopTimer()
	col := obs.NewCollector()
	obs.Install(col)
	before := ev.Compilations.Load()
	var cycles int64
	for _, c := range cells {
		cycles += ev.EvaluateScratch(bench.ByName(c.bench), c.arch, sc).Cycles
	}
	runs := ev.Compilations.Load() - before
	obs.Install(nil)
	lap := float64(len(cells))
	b.ReportMetric(float64(runs)/lap, "runs/op")
	b.ReportMetric(float64(cycles)/lap, "cycles/op")
	b.ReportMetric(float64(col.Counter("sched.spill_rewritten").Value()), "spill_rewritten/lap")
	b.ReportMetric(float64(col.Counter("dse.compile_beaten").Value()), "compile_beaten/lap")
}

// BenchmarkEvaluateDelta measures the steady-state neighbor
// re-evaluation path the stochastic search strategies sit on: delta
// compilation enabled, caches warm, cycling through a one-parameter
// neighbor ring so every iteration is the kind of move hill climbing
// and annealing generate. Compare against BenchmarkEvaluate (the cold
// full driver) for the delta speedup.
func BenchmarkEvaluateDelta(b *testing.B) {
	sc := sched.NewScratch()
	benchmarkRing(b, func(ev *Evaluator, bm *bench.Benchmark, a machine.Arch) { ev.EvaluateScratch(bm, a, sc) })
}

// BenchmarkEvaluateSearch is BenchmarkEvaluateDelta through Evaluate,
// which hands the backend no arena: the path cfp-search and
// core.SearchCompare take, where every sweep borrows an arena from the
// idle list and gives it back.
func BenchmarkEvaluateSearch(b *testing.B) {
	benchmarkRing(b, func(ev *Evaluator, bm *bench.Benchmark, a machine.Arch) { ev.Evaluate(bm, a) })
}

// benchmarkRing warms a delta-compiling evaluator on deltaNeighborRing
// with eval, then times eval around the ring.
func benchmarkRing(b *testing.B, eval func(*Evaluator, *bench.Benchmark, machine.Arch)) {
	ev := NewEvaluator()
	ev.Width = 48
	ev.DisableMemo = true
	bm := bench.ByName("G")
	ring := deltaNeighborRing()
	for r := 0; r < 2; r++ {
		for _, a := range ring {
			eval(ev, bm, a)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval(ev, bm, ring[i%len(ring)])
	}
}

// BenchmarkExploreOpsSubset explores the benchmark subspace crossed
// with a fixed two-op catalog (the paper's MAC plus an add-add chain)
// end to end, every caching layer on, so each iteration pays the
// pattern rewrite, the custom-unit scheduling path and the doubled
// grid. The catalog is pinned rather than mined so the measurement
// tracks the explorer, not the miner.
func BenchmarkExploreOpsSubset(b *testing.B) {
	set, err := machine.ParseOpCatalog([]string{
		"mac/3/2:mul $0 $1;add %0 $2",
		"add_add/3/1:add $0 $1;add %0 $2",
	})
	if err != nil {
		b.Fatal(err)
	}
	archs := machine.CrossOps(exploreBenchArchs(), set, machine.DefaultMasks(set))
	benches := []*bench.Benchmark{bench.ByName("G")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewExplorer()
		e.Archs = archs
		e.Width = 48
		e.Benchmarks = benches
		res, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(archs)*len(benches)), "evals")
			b.ReportMetric(float64(res.Stats.Runs), "runs")
		}
	}
}
