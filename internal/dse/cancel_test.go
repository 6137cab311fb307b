package dse

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"customfit/internal/bench"
	"customfit/internal/evcache"
	"customfit/internal/machine"
)

// smallCancelExplorer is a fast configuration for the cancellation
// tests: one benchmark over a thin arch slice at a small width. It
// stays cheap enough to run under the race detector, which is the
// point — these tests are in the `make check` -race set.
func smallCancelExplorer() *Explorer {
	e := NewExplorer()
	full := machine.FullSpace()
	var archs []machine.Arch
	for i := 0; i < len(full); i += 31 {
		archs = append(archs, full[i])
	}
	archs = append(archs, machine.Baseline)
	e.Archs = archs
	e.Width = 32
	e.Benchmarks = []*bench.Benchmark{bench.ByName("G")}
	return e
}

func TestEvaluateCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ev := NewEvaluator()
	ev.Width = 32
	evl := ev.EvaluateCtx(ctx, bench.ByName("G"), machine.Baseline)
	if !evl.Cancelled {
		t.Error("evaluation under a cancelled context not marked Cancelled")
	}
	if evl.Failed {
		t.Error("cancelled evaluation marked Failed: cancellation is not a compile failure")
	}
}

func TestRunCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := smallCancelExplorer().RunCtx(ctx)
	if res != nil {
		t.Error("cancelled run returned partial results")
	}
	if !errors.Is(err, ErrCancelled) {
		t.Errorf("error %v does not wrap ErrCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
}

// TestRunCtxCancelMidFlight cancels from inside the progress callback —
// so the cancellation provably lands while workers are mid-exploration —
// and requires a prompt ErrCancelled with cancelled work never counted
// as failure.
func TestRunCtxCancelMidFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := smallCancelExplorer()
	var fired atomic.Bool
	var sawFailedAfterCancel atomic.Bool
	e.Progress = func(p ProgressInfo) {
		if p.Done >= 2 && fired.CompareAndSwap(false, true) {
			cancel()
		}
		if fired.Load() && p.Failed > 0 {
			sawFailedAfterCancel.Store(true)
		}
	}
	res, err := e.RunCtx(ctx)
	if res != nil {
		t.Error("cancelled run returned partial results")
	}
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("error %v does not wrap ErrCancelled", err)
	}
	if !fired.Load() {
		t.Fatal("exploration finished before the cancel point — shrink the trigger")
	}
	if sawFailedAfterCancel.Load() {
		t.Error("evaluations abandoned by cancellation were counted as failures")
	}
}

// gateCtx is a context whose cancellation the test places exactly: the
// first Err call (runSweep's check before the first compile) reports it
// live; the second (before the next unroll factor) announces the sweep
// is in flight, waits for release, and reports it cancelled from then
// on.
type gateCtx struct {
	context.Context
	calls    atomic.Int32
	inFlight chan struct{}
	release  chan struct{}
}

func (g *gateCtx) Err() error {
	switch g.calls.Add(1) {
	case 1:
		return nil
	case 2:
		close(g.inFlight)
	}
	<-g.release
	return context.Canceled
}

// TestCancelledSweepNotStoredWaiterRecomputes covers the one
// singleflight on the evaluation path (evcache.DoErr under
// sweepThroughCache, here on the evaluator's private tier): a sweep
// cancelled mid-way is not stored, and a live caller that coalesced
// onto it recomputes the class instead of inheriting the cancellation.
func TestCancelledSweepNotStoredWaiterRecomputes(t *testing.T) {
	b, arch := bench.ByName("G"), machine.Baseline
	ref := NewEvaluator()
	ref.Width = 32
	want := ref.Evaluate(b, arch)

	ev := NewEvaluator()
	ev.Width = 32
	gate := &gateCtx{Context: context.Background(), inFlight: make(chan struct{}), release: make(chan struct{})}
	doomed := make(chan Evaluation, 1)
	go func() { doomed <- ev.EvaluateCtx(gate, b, arch) }()
	select {
	case <-gate.inFlight:
	case e := <-doomed:
		t.Fatalf("sweep finished after one compile (%+v): pick a machine whose sweep takes two", e)
	}
	waiter := make(chan Evaluation, 1)
	go func() { waiter <- ev.EvaluateCtx(context.Background(), b, arch) }()
	for ev.sweepCache().Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	close(gate.release)

	if e := <-doomed; !e.Cancelled || e.Failed {
		t.Errorf("cancelled sweep returned %+v, want Cancelled and not Failed", e)
	}
	if e := <-waiter; e != want {
		t.Errorf("waiter on a cancelled sweep got %+v, a clean evaluation gives %+v", e, want)
	}
	st := ev.sweepCache().Stats()
	if st.Computes != 2 || st.Hits != 0 {
		t.Errorf("cache stats %+v: want two computes (the cancelled sweep, then the waiter's own) and no hit", st)
	}
	if e, ok := ev.sweepCache().Get(b.Name, CacheKey(ev.kernelClass(b), arch)); !ok || e.Cycles != want.Cycles {
		t.Errorf("stored entry (%+v, %v): want the waiter's completed sweep", e, ok)
	}
}

// TestCancelDoesNotPoisonCaches: a cancelled run must leave the
// persistent cache in a state where a subsequent uncancelled run over
// the same directory still produces the uncached results.
func TestCancelDoesNotPoisonCaches(t *testing.T) {
	dir := t.TempDir()

	// Reference: a clean, uncached run.
	ref, err := smallCancelExplorer().Run()
	if err != nil {
		t.Fatal(err)
	}

	// Cancelled run against a fresh persistent cache.
	cache, err := evcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := smallCancelExplorer()
	e.Cache = cache
	var fired atomic.Bool
	e.Progress = func(p ProgressInfo) {
		if p.Done >= 2 && fired.CompareAndSwap(false, true) {
			cancel()
		}
	}
	if _, err := e.RunCtx(ctx); !errors.Is(err, ErrCancelled) {
		cancel()
		t.Fatalf("cancelled run: %v", err)
	}
	cancel()
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}

	// Uncancelled run over the same (partially filled) cache directory.
	warm, err := evcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e2 := smallCancelExplorer()
	e2.Cache = warm
	res, err := e2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Close(); err != nil {
		t.Fatal(err)
	}
	for bi, b := range ref.Benches {
		if res.Benches[bi] != b {
			t.Fatalf("bench lists differ: %v vs %v", res.Benches, ref.Benches)
		}
		for i := range ref.Eval[b] {
			g, w := res.Eval[b][i], ref.Eval[b][i]
			if g.Cancelled {
				t.Fatalf("%s on %v: stale Cancelled evaluation leaked from the aborted run", b, w.Arch)
			}
			if g.Unroll != w.Unroll || g.Cycles != w.Cycles || g.Spilled != w.Spilled ||
				g.Failed != w.Failed || g.Time != w.Time || g.Speedup != w.Speedup {
				t.Fatalf("%s on %v: post-cancel run %+v differs from clean run %+v", b, w.Arch, g, w)
			}
		}
	}
	if res.Stats.Runs != ref.Stats.Runs {
		t.Errorf("logical run count %d after cancelled warm-up, clean run counted %d",
			res.Stats.Runs, ref.Stats.Runs)
	}
	if res.Stats.Cancelled != 0 {
		t.Errorf("completed run reports %d cancelled evaluations", res.Stats.Cancelled)
	}
}

// TestExploreCancelDuringPrepare cancels from inside the first
// preparation's reference run — before any evaluation has started — and
// requires ErrCancelled with the remaining preparations skipped: the
// one in flight finishes, the queued ones never reach their own
// reference runs.
func TestExploreCancelDuringPrepare(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := smallCancelExplorer()
	e.Workers = 1
	g := *bench.ByName("G")
	newCase := g.NewCase
	var referenceRuns atomic.Int64
	g.NewCase = func(width int, seed int64) *bench.Case {
		referenceRuns.Add(1)
		cancel()
		return newCase(width, seed)
	}
	e.Benchmarks = []*bench.Benchmark{&g}
	res, err := e.RunCtx(ctx)
	if res != nil {
		t.Error("cancelled run returned partial results")
	}
	if !errors.Is(err, ErrCancelled) {
		t.Errorf("error %v does not wrap ErrCancelled", err)
	}
	if n := referenceRuns.Load(); n != 1 {
		t.Errorf("%d reference runs: the preparations queued behind the cancelled one must not run", n)
	}
}
