package dse

import (
	"sync"
	"testing"
	"time"

	"customfit/internal/bench"
	"customfit/internal/evcache"
	"customfit/internal/machine"
	"customfit/internal/sched"
)

// subsetExplorer is the benchmark subset configuration (one benchmark
// over the clustered, signature-dense region) with a cache attached.
func subsetExplorer(c *evcache.Cache) *Explorer {
	e := NewExplorer()
	e.Archs = exploreBenchArchs()
	e.Width = 48
	e.Benchmarks = []*bench.Benchmark{bench.ByName("G")}
	e.Cache = c
	return e
}

// TestWarmCacheSpeedsUpExploration is the cache's reason to exist: a
// second run over the same cache directory must cost less than 10% of
// the cold run's wall time (it skips every backend compile, every
// frontend compile, and every reference-interpreter run) while
// producing identical results.
func TestWarmCacheSpeedsUpExploration(t *testing.T) {
	if testing.Short() {
		t.Skip("explores a few hundred architectures")
	}
	if raceEnabled {
		t.Skip("wall-clock ratio assertions are unreliable under race instrumentation")
	}
	dir := t.TempDir()
	cold, err := evcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	res1, err := subsetExplorer(cold).Run()
	coldWall := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	warm, err := evcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t1 := time.Now()
	res2, err := subsetExplorer(warm).Run()
	warmWall := time.Since(t1)
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.Misses != 0 || st.Hits == 0 {
		t.Fatalf("warm run stats %+v: want all hits", st)
	}
	if warmWall*10 >= coldWall {
		t.Errorf("warm run took %v, not <10%% of cold %v", warmWall, coldWall)
	}

	// And warm must be invisible in the numbers.
	for b, wnt := range res1.Eval {
		got := res2.Eval[b]
		if len(got) != len(wnt) {
			t.Fatalf("%s: %d vs %d evaluations", b, len(got), len(wnt))
		}
		for i := range wnt {
			g, w := got[i], wnt[i]
			if g.Unroll != w.Unroll || g.Cycles != w.Cycles || g.Spilled != w.Spilled ||
				g.Failed != w.Failed || g.Time != w.Time || g.Speedup != w.Speedup {
				t.Fatalf("%s on %v: warm %+v differs from cold %+v", b, w.Arch, g, w)
			}
		}
	}
	if res1.Stats.Runs != res2.Stats.Runs {
		t.Errorf("logical runs: cold %d, warm %d", res1.Stats.Runs, res2.Stats.Runs)
	}
}

// TestEvictingCacheSameResults: the memory tier can evict, and an
// evicted class costs a recompute — never a different answer or a
// different logical run count.
func TestEvictingCacheSameResults(t *testing.T) {
	run := func(maxEntries int) (*Results, evcache.Stats) {
		t.Helper()
		c, err := evcache.Open("")
		if err != nil {
			t.Fatal(err)
		}
		if maxEntries > 0 {
			c.SetMaxEntries(maxEntries)
		}
		res, err := subsetExplorer(c).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, c.Stats()
	}
	want, unbounded := run(0)
	got, bounded := run(1)
	if bounded.Computes <= unbounded.Computes {
		t.Fatalf("one-entry cache computed %d sweeps, unbounded %d: nothing was evicted, the test proves nothing",
			bounded.Computes, unbounded.Computes)
	}
	for i, w := range want.Eval["G"] {
		if g := got.Eval["G"][i]; g != w {
			t.Fatalf("%v: evicting cache gives %+v, unbounded %+v", w.Arch, g, w)
		}
	}
	if got.Stats.Runs != want.Stats.Runs {
		t.Errorf("logical runs: evicting cache %d, unbounded %d", got.Stats.Runs, want.Stats.Runs)
	}
}

// TestSharedCacheConcurrentEvaluators exercises the cache's concurrent
// paths the way separate warm processes would: several evaluators
// sharing one cache, racing on the same keys.
func TestSharedCacheConcurrentEvaluators(t *testing.T) {
	cache, err := evcache.Open("")
	if err != nil {
		t.Fatal(err)
	}
	b := bench.ByName("G")
	archs := []machine.Arch{
		machine.Baseline,
		{ALUs: 4, MULs: 2, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 1},
		{ALUs: 8, MULs: 4, Regs: 256, L2Ports: 2, L2Lat: 2, Clusters: 2},
	}
	const evaluators = 4
	results := make([][]Evaluation, evaluators)
	var wg sync.WaitGroup
	for w := 0; w < evaluators; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ev := NewEvaluator()
			ev.Width = 32
			ev.Cache = cache
			sc := sched.NewScratch()
			for _, a := range archs {
				results[w] = append(results[w], ev.EvaluateScratch(b, a, sc))
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < evaluators; w++ {
		for i := range results[0] {
			if results[w][i] != results[0][i] {
				t.Fatalf("evaluator %d arch %d: %+v differs from %+v",
					w, i, results[w][i], results[0][i])
			}
		}
	}
	st := cache.Stats()
	if st.Hits+st.Coalesced == 0 {
		t.Error("shared cache never deduplicated across evaluators")
	}
}

// TestLowerBoundCyclesAdmissible pins the dse-level bound to the real
// sweep: the visit-weighted lower bound must never exceed the cycles
// the full unroll sweep actually achieves, and is not offered where the
// backend schedules other blocks than the bound counted (min/max
// fusion, custom-op rewriting).
func TestLowerBoundCyclesAdmissible(t *testing.T) {
	ev := NewEvaluator()
	ev.Width = 32
	b := bench.ByName("G")
	set := testOpSet(t)
	archs := []machine.Arch{
		machine.Baseline,
		{ALUs: 2, MULs: 1, Regs: 64, L2Ports: 1, L2Lat: 8, Clusters: 1},
		{ALUs: 4, MULs: 2, Regs: 128, L2Ports: 2, L2Lat: 4, Clusters: 1},
		{ALUs: 8, MULs: 2, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 4},
		{ALUs: 8, MULs: 4, Regs: 256, L2Ports: 2, L2Lat: 2, Clusters: 2},
		{ALUs: 16, MULs: 8, Regs: 512, L2Ports: 4, L2Lat: 2, Clusters: 4},
	}
	for _, a := range archs {
		lb, ok := ev.LowerBoundCycles(b, a)
		if !ok {
			t.Fatalf("no bound for %v", a)
		}
		if lb <= 0 {
			t.Errorf("%v: non-positive bound %d", a, lb)
		}
		evl := ev.Evaluate(b, a)
		if evl.Failed {
			continue
		}
		if lb > evl.Cycles {
			t.Errorf("%v: bound %d exceeds real sweep cycles %d (inadmissible)", a, lb, evl.Cycles)
		}
		// The backend rewrites the blocks of these before scheduling;
		// the bound of the unrewritten ones says nothing about them.
		for _, rewritten := range []machine.Arch{a.WithMinMax(), a.WithOps(set, 1)} {
			if lb, ok := ev.LowerBoundCycles(b, rewritten); ok {
				t.Errorf("%v: bound %d claimed for blocks the backend rewrites", rewritten, lb)
			}
		}
	}
}

// TestCacheDisabledWithMemoOff pins DisableMemo's contract: it bypasses
// the persistent cache too, so honest per-compile measurements stay
// honest even with a warm cache attached.
func TestCacheDisabledWithMemoOff(t *testing.T) {
	cache, err := evcache.Open("")
	if err != nil {
		t.Fatal(err)
	}
	b := bench.ByName("G")
	arch := machine.Arch{ALUs: 4, MULs: 2, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 1}

	warmer := NewEvaluator()
	warmer.Width = 32
	warmer.Cache = cache
	warmer.Evaluate(b, arch)
	if cache.Stats().Misses == 0 {
		t.Fatal("warmer never touched the cache")
	}

	ev := NewEvaluator()
	ev.Width = 32
	ev.Cache = cache
	ev.DisableMemo = true
	before := cache.Stats()
	ev.Evaluate(b, arch)
	ev.Evaluate(b, arch)
	after := cache.Stats()
	if after != before {
		t.Errorf("DisableMemo run touched the cache: %+v -> %+v", before, after)
	}
	if got := ev.Compilations.Load(); got < 2 {
		t.Errorf("DisableMemo performed %d compilations for 2 evaluations", got)
	}
	// Nor does a run answer a row from it, resident as the row is.
	e := NewExplorer()
	e.Archs, e.Benchmarks, e.Width = []machine.Arch{arch}, []*bench.Benchmark{b}, 32
	e.Cache, e.DisableMemo = cache, true
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if after := cache.Stats(); after != before {
		t.Errorf("DisableMemo exploration touched the cache: %+v -> %+v", before, after)
	}
}
