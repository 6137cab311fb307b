package dse

import (
	"context"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/evcache"
	"customfit/internal/machine"
)

// warmWidth is the reference workload width of the warm-tier tests.
const warmWidth = 48

// fillWarmDir fills a cache directory with one entry per signature
// class of archs for each of the named benchmarks, under the keys an
// evaluator of warmWidth derives, and returns the benchmarks. The
// entries are made up (a warm run never looks behind them) but shaped
// like real ones, so the shard files have the size and the lines of a
// directory a cold run leaves.
func fillWarmDir(tb testing.TB, dir string, archs []machine.Arch, names ...string) []*bench.Benchmark {
	tb.Helper()
	c, err := evcache.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var benches []*bench.Benchmark
	for _, name := range names {
		b := bench.ByName(name)
		benches = append(benches, b)
		kc := KernelClass(b, warmWidth, workloadSeed)
		for i, a := range archs {
			c.Put(b.Name, CacheKey(kc, a), evcache.Entry{
				Unroll: 1 << (i % 4), Cycles: int64(20000 + 7*i), Spilled: i % 5, Runs: int64(i%4 + 1),
			})
		}
	}
	if err := c.Close(); err != nil {
		tb.Fatal(err)
	}
	return benches
}

// TestWarmRunAllocs holds the warm path to what it costs today: a run
// over the full space answered from a filled directory — open, load the
// shard, answer the row, the results — makes 41 objects, 0.0538 per
// evaluation, all of them per run or per shard rather than per entry or
// per lookup (11.1 before the shard loader stopped making a node, a
// list element and a key string of every line and the lookup a string
// of every key; 0.99 while NewExplorer enumerated the full space for
// its caller to overwrite and Finish the design space to count it; 0.09
// while the row went through the queue and KernelClass through fmt).
// The limit is that plus a tenth: four more objects a run fail here,
// one more per shard line reads +0.8, one per lookup +1.
func TestWarmRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	archs := machine.FullSpace()
	dir := t.TempDir()
	benches := fillWarmDir(t, dir, archs, "D")
	run := func() {
		c, err := evcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		e := NewExplorer()
		e.Archs, e.Benchmarks, e.Width, e.Cache = archs, benches, warmWidth, c
		res, err := e.RunCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.Misses != 0 || res.Stats.Phases.Compile != 0 {
			t.Fatalf("the run was not warm: %+v, %v in the backend", st, res.Stats.Phases.Compile)
		}
	}
	perEval := testing.AllocsPerRun(5, run) / float64(len(archs))
	t.Logf("%.4f allocations per warm evaluation", perEval)
	if perEval > 0.059 {
		t.Errorf("%.4f allocations per warm evaluation, want at most 0.059", perEval)
	}
}

// BenchmarkWarmOpen is the disk tier's layer benchmark, one
// explore_warm operation below the facade: open a directory holding the
// full space × {D, E, F, G} and answer each kernel's row from it
// (answerCached: load the shard, one batch lookup, the derates), on one
// goroutine. Nothing compiles; what is timed is reading and decoding
// four shards and one key derivation and lookup per evaluation.
//
// Until the warm path's round two an op here was CacheCovers of each
// kernel and then Evaluate of every cell: two derivations and lookups
// per evaluation, as a run then made them. A drop across that commit in
// the trajectory is the path getting shorter, not the host faster.
func BenchmarkWarmOpen(b *testing.B) {
	archs := machine.FullSpace()
	dir := b.TempDir()
	benches := fillWarmDir(b, dir, archs, "D", "E", "F", "G")
	row := make([]Evaluation, len(archs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := evcache.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		ev := NewEvaluator()
		ev.Width, ev.Cache = warmWidth, c
		grid := ev.newCachedGrid(archs, len(benches))
		for _, bm := range benches {
			if covered, failed := ev.answerCached(nil, bm, grid, row); !covered || failed != 0 || row[0].Time <= 0 {
				b.Fatalf("%s: covered %v, %d failed, first cell %+v", bm.Name, covered, failed, row[0])
			}
		}
		if st := c.Stats(); st.Misses != 0 || st.Hits != int64(len(benches)*len(archs)) {
			b.Fatalf("not warm: %+v", st)
		}
	}
	b.ReportMetric(float64(len(benches)*len(archs)), "evals")
}
