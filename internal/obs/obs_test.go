package obs

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	olog "customfit/internal/obs/log"
)

// install swaps in a fresh collector and restores the disabled state
// when the test ends.
func install(t *testing.T) *Collector {
	t.Helper()
	c := NewCollector()
	Install(c)
	t.Cleanup(func() { Install(nil) })
	return c
}

// fakeClock replaces c's clock with one that advances step per call.
func fakeClock(c *Collector, step time.Duration) {
	var tick time.Duration
	c.nowFn = func() time.Duration {
		tick += step
		return tick
	}
}

func TestSpanNestingAndOrdering(t *testing.T) {
	c := install(t)
	root := StartSpan("compile")
	root.Str("kernel", "A")
	inner := root.Child("opt")
	leaf := inner.Child("opt.clean").Int("instrs_before", 10).Int("instrs_after", 7)
	leaf.End()
	inner.End()
	other := StartSpan("sim")
	other.End()
	root.End()

	evs := c.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	byName := map[string]Event{}
	for _, e := range evs {
		byName[e.Name] = e
	}
	rt, ok1 := byName["compile"]
	op, ok2 := byName["opt"]
	cl, ok3 := byName["opt.clean"]
	sm, ok4 := byName["sim"]
	if !ok1 || !ok2 || !ok3 || !ok4 {
		t.Fatalf("missing events: %v", byName)
	}
	// Children share the root's track; unrelated roots get their own.
	if op.TID != rt.TID || cl.TID != rt.TID {
		t.Errorf("children not on root track: root %d opt %d clean %d", rt.TID, op.TID, cl.TID)
	}
	if sm.TID == rt.TID {
		t.Error("independent root spans must get distinct tracks")
	}
	// Nesting: each child starts no earlier and ends no later than its
	// parent.
	within := func(outer, innerE Event) bool {
		return innerE.Start >= outer.Start &&
			innerE.Start+innerE.Dur <= outer.Start+outer.Dur
	}
	if !within(rt, op) || !within(op, cl) {
		t.Errorf("child spans not nested: root %+v opt %+v clean %+v", rt, op, cl)
	}
	// Attributes survive with types intact.
	var sawBefore, sawAfter bool
	for _, a := range cl.Attrs {
		switch a.Key {
		case "instrs_before":
			sawBefore = a.Value() == int64(10)
		case "instrs_after":
			sawAfter = a.Value() == int64(7)
		}
	}
	if !sawBefore || !sawAfter {
		t.Errorf("attrs lost: %+v", cl.Attrs)
	}
}

func TestUnderParentAndRoot(t *testing.T) {
	c := install(t)
	root := StartSpan("root")
	Under(root, "child").End()
	Under(nil, "orphan").End()
	root.End()
	evs := c.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	tids := map[string]int64{}
	for _, e := range evs {
		tids[e.Name] = e.TID
	}
	if tids["child"] != tids["root"] {
		t.Error("Under(parent, ...) must join the parent's track")
	}
	if tids["orphan"] == tids["root"] {
		t.Error("Under(nil, ...) must start a fresh track")
	}
}

func TestCountersConcurrent(t *testing.T) {
	c := install(t)
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				GetCounter("test.compiles").Inc()
				GetCounter("test.bytes").Add(3)
				GetHistogram("test.lat").Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := c.Counter("test.compiles").Value(); got != workers*perWorker {
		t.Errorf("compiles = %d, want %d", got, workers*perWorker)
	}
	if got := c.Counter("test.bytes").Value(); got != 3*workers*perWorker {
		t.Errorf("bytes = %d, want %d", got, 3*workers*perWorker)
	}
	count, sum, min, max := c.Histogram("test.lat").Summary()
	if count != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", count, workers*perWorker)
	}
	if min != 0 || max != perWorker-1 {
		t.Errorf("histogram min/max = %v/%v, want 0/%v", min, max, perWorker-1)
	}
	wantSum := float64(workers) * float64(perWorker-1) * float64(perWorker) / 2
	if sum != wantSum {
		t.Errorf("histogram sum = %v, want %v", sum, wantSum)
	}
}

// TestDisabledPathAllocatesNothing pins the nil-sink fast path: with no
// collector installed, the full instrumentation surface must not
// allocate (this is what keeps bench_test.go numbers honest).
func TestDisabledPathAllocatesNothing(t *testing.T) {
	Install(nil)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		sp := StartSpan("compile")
		child := sp.Child("opt").Int("instrs", 42).Float("ratio", 0.5).Str("arch", "a")
		child.End()
		Under(sp, "sched").End()
		sp.End()
		GetCounter("dse.compiles").Inc()
		GetCounter("dse.compiles").Add(7)
		GetHistogram("dse.busy").Observe(1.5)
		SetGauge("dse.rate", 2.5)
		_ = Enabled()
		// Propagation surface: contexts, wire conversion, forking.
		csp := StartSpanCtx(ctx, "evaluate")
		_ = ContextWithSpan(ctx, csp)
		_ = csp.Context()
		csp.Fork("dist.shard").End()
		csp.AdoptRemote(nil)
		_ = csp.TakeSubtree()
		csp.End()
		_ = SpanFromContext(ctx)
	})
	if allocs != 0 {
		t.Errorf("disabled path allocates %.1f per op, want 0", allocs)
	}
}

// TestDisabledLoggingAllocatesNothing pins the nil-logger fast path of
// obs/log: with no logger installed, a full builder chain must not
// allocate (the builder API exists precisely to dodge the variadic
// backing array slog's own call shape would force).
func TestDisabledLoggingAllocatesNothing(t *testing.T) {
	olog.Install(nil)
	err := errForAllocTest
	allocs := testing.AllocsPerRun(1000, func() {
		olog.Info("job finished").Str("job", "j-1").Int("n", 3).
			Float("ratio", 0.5).Dur("dur", time.Second).Err(err).Log()
		olog.Debug("detail").Str("k", "v").Log()
		olog.Default().Warn("w").Log()
	})
	if allocs != 0 {
		t.Errorf("disabled logging allocates %.1f per op, want 0", allocs)
	}
}

var errForAllocTest = errors.New("boom")

func TestDisabledEntryPointsReturnNil(t *testing.T) {
	Install(nil)
	if Enabled() {
		t.Fatal("no collector installed but Enabled() = true")
	}
	if StartSpan("x") != nil || GetCounter("c") != nil || GetHistogram("h") != nil {
		t.Error("disabled entry points must return nil sinks")
	}
	if Active() != nil {
		t.Error("Active() must be nil when disabled")
	}
	// And the nil sinks must be inert, not panicky.
	var sp *Span
	sp.Child("y").Int("k", 1).Str("s", "v").Float("f", 1).End()
	sp.End()
	var ct *Counter
	ct.Inc()
	if ct.Value() != 0 {
		t.Error("nil counter value must be 0")
	}
	var h *Histogram
	h.Observe(1)
	if n, _, _, _ := h.Summary(); n != 0 {
		t.Error("nil histogram must stay empty")
	}
}
