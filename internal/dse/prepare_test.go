package dse

import (
	"sync"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/ir"
	"customfit/internal/obs"
	"customfit/internal/opt"
)

// prepareAll runs the preparations of every benchmark through a fresh
// evaluator the way a run does: in prepareJobs' order, drained from one
// queue by the given number of workers.
func prepareAll(benches []*bench.Benchmark, workers int) *Evaluator {
	ev := NewEvaluator()
	ev.Width = 16
	cold := make([]int, len(benches))
	for i := range cold {
		cold[i] = i
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				ev.prepare(nil, benches[j.bi], j.unroll)
			}
		}()
	}
	for _, j := range prepareJobs(cold) {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	return ev
}

// countPrepared returns how many (benchmark, unroll) cells of the
// evaluator hold a prepared kernel (the others hold an error).
func countPrepared(ev *Evaluator) int {
	n := 0
	for _, byU := range ev.cache {
		for _, p := range byU {
			if p.err == nil {
				n++
			}
		}
	}
	return n
}

// sameIR reports whether two functions list the same instructions with
// the same registers under the same loop metadata.
func sameIR(a, b *ir.Func) bool {
	if a.String() != b.String() || a.NumRegs() != b.NumRegs() || (a.Loop == nil) != (b.Loop == nil) {
		return false
	}
	if l, m := a.Loop, b.Loop; l != nil {
		return l.Preheader.Name == m.Preheader.Name && l.Header.Name == m.Header.Name &&
			l.Latch.Name == m.Latch.Name && l.Exit.Name == m.Exit.Name &&
			l.IndVar == m.IndVar && l.Limit == m.Limit && l.Step == m.Step
	}
	return true
}

// TestPrepareOptimizesOncePerKernel drives every (kernel, unroll) cell
// of the suite through one evaluator from several goroutines at once —
// each cell asked for twice, so both onces are contended — and counts:
// the optimizer ran once per kernel, not once per cell (11 opt spans),
// 39 of the 44 cells prepared (5 exceed the unroll budget), and what
// prepare holds for a cell is exactly opt.Prepare's result. Part of
// `make race`.
func TestPrepareOptimizesOncePerKernel(t *testing.T) {
	benches := bench.All()
	col := obs.NewCollector()
	obs.Install(col)
	defer obs.Install(nil)

	ev := NewEvaluator()
	ev.Width = 16
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Two goroutines walk the cells forwards and two backwards.
			for i := range benches {
				for j := range UnrollFactors {
					bi, ui := i, j
					if g%2 == 1 {
						bi, ui = len(benches)-1-i, len(UnrollFactors)-1-j
					}
					ev.prepare(nil, benches[bi], UnrollFactors[ui])
				}
			}
		}(g)
	}
	wg.Wait()
	obs.Install(nil)

	opts := 0
	for _, e := range col.Events() {
		if e.Name == "opt" {
			opts++
		}
	}
	if opts != len(benches) {
		t.Errorf("%d opt spans for %d kernels: the optimizer must run once per kernel", opts, len(benches))
	}
	if got, want := countPrepared(ev), len(benches)*len(UnrollFactors)-5; got != want {
		t.Errorf("%d cells prepared, want %d", got, want)
	}
	for _, b := range benches {
		fn, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range UnrollFactors {
			want, werr := opt.Prepare(fn, u)
			p := ev.prepare(nil, b, u)
			switch {
			case (werr == nil) != (p.err == nil):
				t.Errorf("%s u=%d: prepare error %v, opt.Prepare error %v", b.Name, u, p.err, werr)
			case werr != nil:
				if p.err.Error() != werr.Error() {
					t.Errorf("%s u=%d: prepare error %q, opt.Prepare error %q", b.Name, u, p.err, werr)
				}
			case !sameIR(p.kernel.F, want):
				t.Errorf("%s u=%d: the evaluator's prepared IR differs from opt.Prepare's", b.Name, u)
			}
		}
	}
}

// BenchmarkPrepare measures the architecture-independent half of a cold
// run on its own: a fresh evaluator prepares the suite's 11 kernels at
// every unroll factor (frontend, optimize, unroll, reference run) in
// the order and on as many workers as an exploration would. Beside the
// timings it reports the work, which repeats exactly: the cells that
// prepared and the optimizer runs it took (counted from the opt spans
// of one more lap after the clock has stopped, as BenchmarkEvaluate
// counts the scheduler's).
func BenchmarkPrepare(b *testing.B) {
	benches := bench.All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prepareAll(benches, 2)
	}
	b.StopTimer()
	col := obs.NewCollector()
	obs.Install(col)
	ev := prepareAll(benches, 2)
	obs.Install(nil)
	opts := 0
	for _, e := range col.Events() {
		if e.Name == "opt" {
			opts++
		}
	}
	b.ReportMetric(float64(countPrepared(ev)), "prepared/op")
	b.ReportMetric(float64(opts), "optimizes/op")
}
