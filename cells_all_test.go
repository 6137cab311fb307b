//go:build cells

package customfit_test

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/dse"
	"customfit/internal/dse/dsetest"
	"customfit/internal/ir"
	"customfit/internal/sched"
)

// TestAllShippedCellsRun is TestShippedCellsRun over every non-failed
// cell of the shipped results instead of a sample, on GOMAXPROCS
// goroutines: each cell held by checkCell to the golden model's
// outputs, its stored cycles and spills, the profile of the explorer's
// block visits with no occupancy above 1, and the same outputs and
// cycles at every shorter L2 latency. About half a minute on two cores, so it sits behind the
// cells build tag (`make cells`) and out of `go test ./...`. It logs,
// per benchmark and over the space, how many cells each resource
// bounds, and the stall cycles of them all: the attribution of the
// whole space.
func TestAllShippedCellsRun(t *testing.T) {
	res := dsetest.Shipped(t)
	fns := map[string]*ir.Func{}
	for _, name := range res.Benches {
		fn, err := bench.ByName(name).Compile()
		if err != nil {
			t.Fatal(err)
		}
		fns[name] = fn
	}
	cells := make(chan dse.Evaluation)
	var ran, mismatched atomic.Int64
	var mu sync.Mutex
	bounds := map[string]map[string]int{} // bench -> bound -> cells
	stalls := map[string]int64{}
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ev := range cells {
				ran.Add(1)
				st, ok := checkCell(t, fns[ev.Bench], bench.ByName(ev.Bench), ev, sched.Variant{})
				if !ok {
					mismatched.Add(1)
					continue
				}
				mu.Lock()
				if bounds[ev.Bench] == nil {
					bounds[ev.Bench] = map[string]int{}
				}
				bounds[ev.Bench][st.Bound]++
				stalls[ev.Bench] += st.StallCycles
				mu.Unlock()
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
	census := func(bounds map[string]int) string {
		var line []string
		for bound, n := range bounds {
			line = append(line, fmt.Sprintf("%s %d", bound, n))
		}
		slices.Sort(line)
		return strings.Join(line, ", ")
	}
	all := map[string]int{}
	for _, name := range res.Benches {
		for bound, n := range bounds[name] {
			all[bound] += n
		}
		t.Logf("%s: %s; %d stall cycles", name, census(bounds[name]), stalls[name])
	}
	t.Logf("all: %s", census(all))
	t.Logf("%d cells run, %d mismatched", ran.Load(), mismatched.Load())
}
