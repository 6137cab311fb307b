//go:build cells

package customfit_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/core"
	"customfit/internal/dse"
	"customfit/internal/dse/dsetest"
)

// TestAllShippedCellsRun is TestShippedCellsRun over every non-failed
// cell of the shipped results instead of a sample, on GOMAXPROCS
// goroutines: each cell compiled at its stored unroll factor, run
// through the physical register assignment, and held to the golden
// model's outputs, its stored cycles and its stored spills. About half
// a minute on two cores, so it sits behind the cells build tag
// (`make cells`) and out of `go test ./...`.
func TestAllShippedCellsRun(t *testing.T) {
	res := dsetest.Shipped(t)
	kernels := map[string]*core.Kernel{}
	for _, name := range res.Benches {
		k, err := core.ParseKernel(bench.ByName(name).Source)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		kernels[name] = k
	}
	cells := make(chan dse.Evaluation)
	var ran, mismatched atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ev := range cells {
				ran.Add(1)
				if !checkCell(t, kernels[ev.Bench], bench.ByName(ev.Bench), ev) {
					mismatched.Add(1)
				}
			}
		}()
	}
	for _, name := range res.Benches {
		for _, ev := range res.Eval[name] {
			if !ev.Failed {
				cells <- ev
			}
		}
	}
	close(cells)
	wg.Wait()
	t.Logf("%d cells run, %d mismatched", ran.Load(), mismatched.Load())
}
