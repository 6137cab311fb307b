package cc_test

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/cc"
	"customfit/internal/cc/cctest"
)

// TestConcurrentCompile compiles the suite's kernels and 40
// cctest.Kernel draws on 8 goroutines at once, each starting at its own
// offset so that different sources share the frontend's idle list of
// workspaces, and holds every lowered function to a sequential
// compile's. `make race` runs it under the race detector: each compile
// takes a workspace from the list and gives it back, and a workspace
// reused by another goroutine must carry nothing over.
func TestConcurrentCompile(t *testing.T) {
	var srcs []string
	for _, b := range bench.All() {
		srcs = append(srcs, b.Source)
	}
	r := rand.New(rand.NewSource(39))
	for i := 0; i < 40; i++ {
		srcs = append(srcs, cctest.Kernel(r))
	}
	render := func(src string) string {
		fns, err := cc.Compile(src)
		if err != nil {
			return "error: " + err.Error()
		}
		var sb strings.Builder
		for _, fn := range fns {
			sb.WriteString(fn.String())
		}
		return sb.String()
	}
	want := make([]string, len(srcs))
	for i, src := range srcs {
		if want[i] = render(src); strings.HasPrefix(want[i], "error: ") {
			t.Fatalf("source %d does not compile: %s", i, want[i])
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range srcs {
				i := (k + w*len(srcs)/workers) % len(srcs)
				if got := render(srcs[i]); got != want[i] {
					t.Errorf("worker %d, source %d: concurrent compile differs from the sequential one", w, i)
				}
			}
		}(w)
	}
	wg.Wait()
}
