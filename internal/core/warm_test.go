package core

import (
	"context"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/dse"
	"customfit/internal/evcache"
	"customfit/internal/machine"
)

// warmFitWidth is the reference workload width of BenchmarkWarmFit.
const warmFitWidth = 48

// fillWarmDir is the twin of internal/dse's test helper of the same
// name: it fills a cache directory with one entry per signature class
// of archs for each of the named benchmarks, under the keys a fit of
// warmFitWidth derives, and returns the benchmarks. The entries are
// made up but shaped like real ones; the baseline's is the slowest, so
// every speedup is defined.
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
		kc := dse.KernelClass(b, warmFitWidth, 1)
		for i, a := range archs {
			c.Put(b.Name, dse.CacheKey(kc, a), evcache.Entry{
				Unroll: 1 << (i % 4), Cycles: int64(20000 + 7*i), Spilled: i % 5, Runs: int64(i%4 + 1),
			})
		}
	}
	if err := c.Close(); err != nil {
		tb.Fatal(err)
	}
	return benches
}

// BenchmarkWarmFit is the end-to-end benchmark's explore_warm operation
// itself: CustomFitCtx under cost cap 10 within 10% of the best, the
// full space × {D, E, F, G}, Parallelism 2, from a filled cache
// directory it opens and closes every time. Nothing compiles.
func BenchmarkWarmFit(b *testing.B) {
	archs := machine.FullSpace()
	dir := b.TempDir()
	opts := FitOptions{
		Benchmarks:  fillWarmDir(b, dir, archs, "D", "E", "F", "G"),
		CostCap:     10,
		Range:       0.1,
		Archs:       archs,
		Width:       warmFitWidth,
		Parallelism: 2,
		CacheDir:    dir,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fit, err := CustomFitCtx(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if st := fit.Results.Stats; st.Phases.Compile != 0 || st.Failures != 0 {
			b.Fatalf("not a warm fit: %+v", st)
		}
	}
	b.ReportMetric(float64(len(opts.Benchmarks)*len(archs)), "evals")
}
