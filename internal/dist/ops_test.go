package dist

import (
	"context"
	"testing"

	"customfit/internal/core"
	"customfit/internal/machine"
	"customfit/internal/serve"
)

// TestDistributedOpAwareMatchesLocal is the op-axis leg of the
// distributed-equals-local guarantee: an op-crossed sampled grid
// sharded over two workers must merge to results bit-identical
// (canonical JSON, shared catalog and masks included) to a local run
// with the same catalog.
func TestDistributedOpAwareMatchesLocal(t *testing.T) {
	col := installCollector(t)
	set, err := machine.ParseOpCatalog([]string{
		"mac/3/2:mul $0 $1;add %0 $2",
		"add_add/3/1:add $0 $1;add %0 $2",
	})
	if err != nil {
		t.Fatal(err)
	}

	w1 := startWorker(t, serve.Options{Workers: 2, Collector: col})
	w2 := startWorker(t, serve.Options{Workers: 2, Collector: col})

	opts := fastOpts(w1.URL, w2.URL)
	opts.Benchmarks = benchesByName("A")
	opts.Sample = 48
	opts.Width = 32
	opts.Ops = set
	got, err := Explore(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}

	want, err := core.Explore(context.Background(), core.ExploreOptions{
		Benchmarks: benchesByName("A"),
		Sample:     48,
		Width:      32,
		Ops:        set,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := canonicalJSON(t, got), canonicalJSON(t, want); g != w {
		t.Errorf("op-aware distributed results diverge from local run\ndistributed: %.400s\nlocal:       %.400s", g, w)
	}
	hasOps := false
	for _, a := range got.Archs {
		if !a.Ops.Empty() {
			hasOps = true
			break
		}
	}
	if !hasOps {
		t.Error("merged grid lost its op-enabled architectures")
	}
	// Custom-op tuples are outside the worker's scanner, and its counter
	// says so.
	if v := col.Counter("serve.tuple_fallbacks").Value(); v == 0 {
		t.Error("serve.tuple_fallbacks = 0 on an op-crossed run")
	}
}
