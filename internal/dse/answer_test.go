package dse

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/evcache"
	"customfit/internal/machine"
	"customfit/internal/obs"
)

// The tests of the answering pass (Evaluator.answerCached): a benchmark
// whose whole row the attached cache holds is answered by one batch
// lookup, and nothing an observer can count — Results, Stats, the
// cache's own accounting, its LRU order — may tell that from the row's
// evaluations having gone through the queue one by one.

// kernelClassPins are KernelClass's values for the eleven kernels at
// (width 96, seed 1) and (width 48, seed 7), recorded from the commit
// before the hashed text was spelled by hand. Every cache directory is
// addressed by these: one that differs turns every warm directory cold.
var kernelClassPins = []struct{ name, w96s1, w48s7 string }{
	{"A", "dd28c916e95950eb10d48ca3", "efb174e2b66ce2b4b8970adb"},
	{"C", "7cb23593fdb9fc95ebc7633f", "2f64dbd00381c961a911171d"},
	{"D", "af31d168aca926b689d34d07", "2e01e86dc1c191a7c5474438"},
	{"E", "a0e4303e75369474e72a3536", "26792615e80712cb9d5112c3"},
	{"F", "1bcc361ac53d98c336711012", "5f193fd2ff526398040054dc"},
	{"G", "49d370c6360007fa10079abf", "33c9a12710810cb74725b58e"},
	{"H", "afd120cd7996605958413a0c", "a167a7b912f3dfa909e153be"},
	{"GF", "0d1ffff2dcf089fc0183ca48", "81cfe0e3b053b4b1b8d012f9"},
	{"GEF", "32922fa7216534080ad5f9fa", "6789899d6cbb4e410ebe2f58"},
	{"DH", "4bb25b01cceef735ed34e7a7", "d788169699e0d52b50968aae"},
	{"DHEF", "279cfeedba35ba093c1a93e3", "c40509651a0a44faa480c56d"},
}

func TestKernelClassPinned(t *testing.T) {
	if len(kernelClassPins) != len(bench.All()) {
		t.Fatalf("%d pins for %d kernels", len(kernelClassPins), len(bench.All()))
	}
	for _, p := range kernelClassPins {
		b := bench.ByName(p.name)
		if got := KernelClass(b, 96, 1); got != p.w96s1 {
			t.Errorf("KernelClass(%s, 96, 1) = %s, recorded %s", p.name, got, p.w96s1)
		}
		if got := KernelClass(b, 48, 7); got != p.w48s7 {
			t.Errorf("KernelClass(%s, 48, 7) = %s, recorded %s", p.name, got, p.w48s7)
		}
	}
	// A non-zero variant keys its sweeps by its fields' %+v spelling
	// (kernelClass): a field added to sched.Variant re-keys these on
	// purpose, and re-records them.
	for _, c := range ablationConfigs[1:] {
		e := NewEvaluator()
		e.Variant = c.variant
		if got := e.kernelClass(bench.ByName("A")); got != variantClassPins[c.name] {
			t.Errorf("kernelClass(A) under %s = %s, recorded %s", c.name, got, variantClassPins[c.name])
		}
	}
}

// variantClassPins are kernel A's classes (width 96) under the four
// ablation variants, recorded from the commit that pinned them.
var variantClassPins = map[string]string{
	"no-reassociation":     "7c1830687e51f92fc00432a1",
	"no-licm":              "e5983c0724c615c803af7754",
	"no-if-conversion":     "d79c2585ba8ed89cfd5f05ea",
	"no-pressure-throttle": "74d91ef79156fe6bcf053143",
}

// cachedExplorer is smallExplorer on one worker with c attached: with
// one worker the split of a cold row's lookups into misses, hits and
// coalesced waits repeats exactly.
func cachedExplorer(c *evcache.Cache, benches ...string) *Explorer {
	e := smallExplorer(benches...)
	e.Workers = 1
	e.Cache = c
	return e
}

// openCache opens dir (memory-only when empty).
func openCache(t *testing.T, dir string) *evcache.Cache {
	t.Helper()
	c, err := evcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fillByRunning runs benches cold over smallSpace into dir.
func fillByRunning(t *testing.T, dir string, benches ...string) {
	t.Helper()
	c := openCache(t, dir)
	if _, err := cachedExplorer(c, benches...).Run(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// dropCell removes arch's line from name's shard under dir.
func dropCell(t *testing.T, dir, name string, arch machine.Arch) {
	t.Helper()
	path := filepath.Join(dir, name+".jsonl")
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	key := `"` + CacheKey(KernelClass(bench.ByName(name), 48, 1), arch) + `"`
	lines := strings.SplitAfter(string(text), "\n")
	var kept []string
	for _, line := range lines {
		if !strings.Contains(line, key) {
			kept = append(kept, line)
		}
	}
	if len(kept) != len(lines)-1 {
		t.Fatalf("%s: %d lines hold %s, want 1", path, len(lines)-len(kept), key)
	}
	if err := os.WriteFile(path, []byte(strings.Join(kept, "")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// sameResults fails unless got's evaluations and counted runs are
// want's.
func sameResults(t *testing.T, what string, got, want *Results) {
	t.Helper()
	if got.Stats.Runs != want.Stats.Runs || got.Stats.Failures != want.Stats.Failures {
		t.Errorf("%s: %d runs and %d failures, want %d and %d", what,
			got.Stats.Runs, got.Stats.Failures, want.Stats.Runs, want.Stats.Failures)
	}
	for _, name := range want.Benches {
		for i, w := range want.Eval[name] {
			if g := got.Eval[name][i]; g != w {
				t.Fatalf("%s: %s on %v: %+v, want %+v", what, name, w.Arch, g, w)
			}
		}
	}
}

// TestMixedRunAccounting: a run of two covered kernels (D, E), one whose
// shard lost a single cell (F) and one the directory never saw (G)
// returns what a cache-less run returns and leaves the cache's counters
// where the commit before the answering pass left them, recorded here.
// Covered rows: a hit per cell. The partial row: nothing from the pass
// (one that counted the three cells ahead of the missing one as it went
// would read three hits more), then a hit per cell but the one
// recompiled. The absent row: a miss and a compute per signature class.
func TestMixedRunAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles four kernels on the small space")
	}
	want, err := smallExplorer("D", "E", "F", "G").Run()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fillByRunning(t, dir, "D", "E", "F")
	dropCell(t, dir, "F", smallSpace[3])

	c := openCache(t, dir)
	got, err := cachedExplorer(c, "D", "E", "F", "G").Run()
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "mixed run", got, want)
	const cells = 8 // len(smallSpace), one signature class each
	st := c.Stats()
	if st.Hits != 2*cells+(cells-1) || st.Misses != 1+cells || st.Computes != 1+cells || st.Coalesced != 0 {
		t.Errorf("cache after the mixed run: %+v, want %d hits, %d misses and computes", st, 2*cells+(cells-1), 1+cells)
	}
	if got.Stats.Runs != 128 || got.Stats.Failures != 0 {
		t.Errorf("mixed run: %d runs and %d failures, recorded 128 and 0", got.Stats.Runs, got.Stats.Failures)
	}
}

// TestAnsweredRowIsMostRecentlyUsed: the pass leaves the LRU ring as the
// row's evaluations would have — every entry of the row more recently
// used than anything touched before the run, the row's own entries in
// grid order. Shrinking the cache to the row's size must evict exactly
// the bystanders, and one more insertion the first architecture's entry.
func TestAnsweredRowIsMostRecentlyUsed(t *testing.T) {
	c := openCache(t, "")
	d := bench.ByName("D")
	kc := KernelClass(d, 48, 1)
	for i, a := range smallSpace {
		c.Put("D", CacheKey(kc, a), evcache.Entry{Unroll: 1, Cycles: int64(1000 + i), Runs: 1})
	}
	bystanders := []string{"x", "y", "z"}
	for _, k := range bystanders {
		c.Put("D", k, evcache.Entry{Unroll: 1, Cycles: 1, Runs: 1}) // the most recently used, until the run
	}
	if _, err := cachedExplorer(c, "D").Run(); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != int64(len(smallSpace)) || st.Misses != 0 {
		t.Fatalf("the run was not answered from the cache: %+v", st)
	}
	c.SetMaxEntries(len(smallSpace))
	for _, k := range bystanders {
		if _, ok := c.Peek("D", k); ok {
			t.Errorf("%q outlived the shrink: the row's entries were not made most recently used", k)
		}
	}
	c.Put("D", "w", evcache.Entry{Unroll: 1, Cycles: 1, Runs: 1})
	for i, a := range smallSpace {
		if _, ok := c.Peek("D", CacheKey(kc, a)); ok != (i != 0) {
			t.Errorf("after one more insertion %v is resident: %v; only the first architecture's entry should have left", a, ok)
		}
	}
}

// TestWarmRunProgress: a run answered whole from the cache reports once
// per benchmark, monotonically, and ends on Done == Total.
func TestWarmRunProgress(t *testing.T) {
	dir := t.TempDir()
	benches := fillWarmDir(t, dir, smallSpace, "D", "E", "F")
	e := cachedExplorer(openCache(t, dir))
	e.Benchmarks, e.Workers = benches, 2
	var seen []ProgressInfo
	e.Progress = func(p ProgressInfo) { seen = append(seen, p) }
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(benches) {
		t.Fatalf("%d progress reports for %d answered benchmarks: %+v", len(seen), len(benches), seen)
	}
	for i, p := range seen {
		if want := (i + 1) * len(smallSpace); p.Done != want || p.Total != len(benches)*len(smallSpace) {
			t.Errorf("report %d: %d of %d, want %d of %d", i, p.Done, p.Total, want, len(benches)*len(smallSpace))
		}
	}
}

// TestWarmRunPreCancelled: a context that ended before the run is
// ErrCancelled before the first row is answered — no hit is counted for
// a run that returns nothing.
func TestWarmRunPreCancelled(t *testing.T) {
	dir := t.TempDir()
	benches := fillWarmDir(t, dir, smallSpace, "D", "E")
	c := openCache(t, dir)
	e := cachedExplorer(c)
	e.Benchmarks = benches
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.RunCtx(ctx); !errors.Is(err, ErrCancelled) {
		t.Fatalf("pre-cancelled warm run: %v, want ErrCancelled", err)
	}
	if st := c.Stats(); st != (evcache.Stats{}) {
		t.Errorf("the cancelled run touched the cache: %+v", st)
	}
}

// TestFailedEntryAnswered: a cached sweep in which nothing compiled
// comes back as it would from an evaluation — Failed, no time, no
// speedup — and is counted in Stats.Failures.
func TestFailedEntryAnswered(t *testing.T) {
	dir := t.TempDir()
	benches := fillWarmDir(t, dir, smallSpace, "D")
	c := openCache(t, dir)
	const bad = 5
	c.Put("D", CacheKey(KernelClass(benches[0], 48, 1), smallSpace[bad]), evcache.Entry{Failed: true, Runs: 1})
	e := cachedExplorer(c)
	e.Benchmarks = benches
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 0 || st.Hits != int64(len(smallSpace)) {
		t.Fatalf("the run was not answered from the cache: %+v", st)
	}
	want := Evaluation{Arch: smallSpace[bad], Bench: "D", Failed: true}
	if got := res.Eval["D"][bad]; got != want {
		t.Errorf("failed entry answered as %+v, want %+v", got, want)
	}
	if res.Stats.Failures != 1 {
		t.Errorf("Stats.Failures = %d, want 1", res.Stats.Failures)
	}
}

// TestWarmRunTelemetry: which tier answered. A run answered from the
// cache records one dse.answer_cached span per benchmark under
// dse.explore and no evaluate span, counts its cells in
// dse.evals_from_cache, and — having queued nothing — observes neither
// worker histogram. Without an attached cache (the evaluator's private
// memory tier) no row is ever answered so.
func TestWarmRunTelemetry(t *testing.T) {
	dir := t.TempDir()
	benches := fillWarmDir(t, dir, smallSpace, "D", "E")
	col := obs.NewCollector()
	obs.Install(col)
	defer obs.Install(nil)

	e := cachedExplorer(openCache(t, dir))
	e.Benchmarks = benches
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var root obs.SpanID
	answered := map[string]bool{}
	for _, ev := range col.Events() {
		switch ev.Name {
		case "dse.explore":
			root = ev.ID
		case "evaluate", "dse.prepare":
			t.Errorf("a %s span in a run answered from the cache", ev.Name)
		}
	}
	for _, ev := range col.Events() {
		if ev.Name != "dse.answer_cached" {
			continue
		}
		attrs := map[string]interface{}{}
		for _, a := range ev.Attrs {
			attrs[a.Key] = a.Value()
		}
		if ev.Parent != root || attrs["cells"] != int64(len(smallSpace)) || attrs["shard_loaded"] != "true" {
			t.Errorf("dse.answer_cached span %+v: want a child of dse.explore with %d cells and the shard loaded", attrs, len(smallSpace))
		}
		answered[attrs["bench"].(string)] = true
	}
	if !answered["D"] || !answered["E"] || len(answered) != 2 {
		t.Errorf("dse.answer_cached spans for %v, want D and E", answered)
	}
	cells := int64(len(benches) * len(smallSpace))
	if got := col.Counter("dse.evals_from_cache").Value(); got != cells {
		t.Errorf("dse.evals_from_cache = %d, want %d", got, cells)
	}
	for _, h := range []string{"dse.worker_busy_seconds", "dse.worker_queue_wait_seconds"} {
		if n, _, _, _ := col.Histogram(h).Summary(); n != 0 {
			t.Errorf("%s observed %d times by a run that queued nothing", h, n)
		}
	}

	if _, err := smallExplorer("D").Run(); err != nil { // no cache attached
		t.Fatal(err)
	}
	if got := col.Counter("dse.evals_from_cache").Value(); got != cells {
		t.Errorf("a run without an attached cache answered %d cells from one", got-cells)
	}
}

// TestSharedCacheWarmAndColdExplorers is cfp-serve's shape: two
// explorations at once on one cache, one answered whole from it, one
// compiling a kernel the directory never saw beside a row it holds, so
// batch lookups, shard loads and the cold row's inserts interleave under
// the cache's lock. Both must return what they return alone. Run with
// -race -count=10.
func TestSharedCacheWarmAndColdExplorers(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles three kernels on the small space")
	}
	wantWarm, err := smallExplorer("D", "E").Run()
	if err != nil {
		t.Fatal(err)
	}
	wantCold, err := smallExplorer("E", "G").Run()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fillByRunning(t, dir, "D", "E")

	c := openCache(t, dir)
	var wg sync.WaitGroup
	run := func(want *Results, what string, benches ...string) {
		defer wg.Done()
		e := cachedExplorer(c, benches...)
		e.Workers = 2
		got, err := e.Run()
		if err != nil {
			t.Error(err)
			return
		}
		sameResults(t, what, got, want)
	}
	wg.Add(2)
	go run(wantWarm, "warm explorer", "D", "E")
	go run(wantCold, "cold explorer", "E", "G")
	wg.Wait()
	if st := c.Stats(); st.Computes == 0 || st.Hits < int64(3*len(smallSpace)) {
		t.Errorf("shared cache after both: %+v, want the cold kernel computed and three rows hit", st)
	}
}
