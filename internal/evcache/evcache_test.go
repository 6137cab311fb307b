package evcache

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"customfit/internal/obs"
)

func testEntry(i int) Entry {
	return Entry{Unroll: 1 << (i % 4), Cycles: int64(1000 + i), Spilled: i % 3, Runs: int64(i%4 + 1)}
}

// do is DoErr for a compute that cannot abort.
func do(c *Cache, shard, key string, compute func() Entry) (Entry, bool) {
	e, hit, _ := c.DoErr(shard, key, func() (Entry, error) { return compute(), nil })
	return e, hit
}

// holds reports whether the cache has (shard, key), through Peek: no
// hit/miss accounting, no LRU movement.
func holds(c *Cache, shard, key string) bool {
	_, ok := c.Peek(shard, key)
	return ok
}

func TestMemoryOnlyRoundtrip(t *testing.T) {
	c, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("G", "k1"); ok {
		t.Fatal("hit on empty cache")
	}
	e := testEntry(1)
	c.Put("G", "k1", e)
	got, ok := c.Get("G", "k1")
	if !ok || got != e {
		t.Fatalf("Get = %+v, %v; want %+v, true", got, ok, e)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats %+v, want 1 hit 1 miss", st)
	}
	if err := c.Flush(); err != nil {
		t.Errorf("memory-only Flush: %v", err)
	}
}

func TestPersistAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	c1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		c1.Put("G", fmt.Sprintf("k%d", i), testEntry(i))
	}
	c1.Put("DH", "other", testEntry(99))
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		got, ok := c2.Get("G", fmt.Sprintf("k%d", i))
		if !ok || got != testEntry(i) {
			t.Fatalf("after reopen, k%d = %+v, %v", i, got, ok)
		}
	}
	if !holds(c2, "DH", "other") {
		t.Error("second shard lost across reopen")
	}
	if st := c2.Stats(); st.Misses != 0 || st.BytesRead == 0 {
		t.Errorf("warm reopen stats %+v: want zero misses, nonzero bytes read", st)
	}
}

// TestFlushMergesEvictedEntries verifies the rewrite-on-flush merges
// on-disk records that have since been evicted from memory: shrinking
// the LRU must never shrink the persisted shard.
func TestFlushMergesEvictedEntries(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("G", "old", testEntry(1))
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.SetMaxEntries(1) // evicts "old" (now clean) once something new arrives
	c.Put("G", "new", testEntry(2))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !holds(c2, "G", "old") || !holds(c2, "G", "new") {
		t.Error("flush dropped evicted on-disk entries")
	}
}

func TestSchemaMismatchSelfInvalidates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "G.jsonl")
	stale := fmt.Sprintf("{\"evcache\":%q,\"schema\":%d}\n{\"k\":\"k1\",\"u\":1,\"c\":5,\"s\":0,\"r\":1}\n",
		headerMagic, SchemaVersion+1)
	if err := os.WriteFile(path, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("G", "k1"); ok {
		t.Fatal("stale-schema shard served an entry")
	}
	// Foreign junk must be equally harmless.
	if err := os.WriteFile(filepath.Join(dir, "DH.jsonl"), []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("DH", "k1"); ok {
		t.Fatal("junk shard served an entry")
	}
	// A fresh write replaces the stale shard with the current schema.
	c.Put("G", "k2", testEntry(3))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !holds(c2, "G", "k2") || holds(c2, "G", "k1") {
		t.Error("rewrite did not supersede the stale shard")
	}
}

func TestLRUEvictsCleanKeepsDirty(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.SetMaxEntries(4)
	for i := 0; i < 10; i++ {
		c.Put("G", fmt.Sprintf("k%d", i), testEntry(i))
	}
	// All entries are dirty (never flushed), so nothing may be evicted:
	// a dirty entry's data exists nowhere else.
	for i := 0; i < 10; i++ {
		if !holds(c, "G", fmt.Sprintf("k%d", i)) {
			t.Fatalf("dirty entry k%d evicted", i)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Flush cleans (and re-evicts down to capacity)...
	resident := 0
	for i := 0; i < 10; i++ {
		if holds(c, "G", fmt.Sprintf("k%d", i)) {
			resident++
		}
	}
	if resident > 4 {
		t.Errorf("%d entries resident after flush, cap is 4", resident)
	}
	// ...but evicted entries remain retrievable from disk via reopen.
	c2, err := Open(c.dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if !holds(c2, "G", fmt.Sprintf("k%d", i)) {
			t.Fatalf("k%d lost after eviction + flush", i)
		}
	}
}

func TestDoSingleflight(t *testing.T) {
	c, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	var computes int32
	var mu sync.Mutex
	gate := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]Entry, workers)
	hits := make([]bool, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-gate
			e, hit := do(c, "G", "hot", func() Entry {
				mu.Lock()
				computes++
				mu.Unlock()
				return testEntry(7)
			})
			results[w], hits[w] = e, hit
		}(w)
	}
	close(gate)
	wg.Wait()
	if computes != 1 {
		t.Fatalf("compute ran %d times, want 1", computes)
	}
	misses := 0
	for w := 0; w < workers; w++ {
		if results[w] != testEntry(7) {
			t.Fatalf("worker %d got %+v", w, results[w])
		}
		if !hits[w] {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d workers report their own compute, want exactly 1", misses)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Coalesced != workers-1 {
		t.Errorf("stats %+v after singleflight of %d workers", st, workers)
	}
}

func TestConcurrentMixedUse(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%50)
				shard := []string{"G", "F", "DH"}[i%3]
				switch i % 4 {
				case 0:
					c.Put(shard, key, testEntry(i))
				case 1:
					c.Get(shard, key)
				case 2:
					do(c, shard, key, func() Entry { return testEntry(i) })
				default:
					holds(c, shard, key)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestShardFileNamesSanitized(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("../evil/name", "k", testEntry(1))
	c.Put("", "k", testEntry(2))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if strings.ContainsAny(de.Name(), "/\\") || strings.HasPrefix(de.Name(), "..") {
			t.Errorf("unsafe shard file %q", de.Name())
		}
	}
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !holds(c2, "../evil/name", "k") || !holds(c2, "", "k") {
		t.Error("sanitized shards not retrievable")
	}
}

// TestCorruptTrailingLineSkipped hand-corrupts a flushed shard the way
// a crash mid-append or filesystem truncation would — a torn final JSON
// line plus a junk line — and verifies the reopen skips exactly the bad
// lines (bumping Stats.CorruptLines and the evcache.corrupt_lines
// counter) while every intact record survives.
func TestCorruptTrailingLineSkipped(t *testing.T) {
	dir := t.TempDir()
	c1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		c1.Put("G", fmt.Sprintf("k%d", i), testEntry(i))
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record mid-JSON and append a junk line after it.
	path := filepath.Join(dir, "G.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("shard has %d lines, want header + records", len(lines))
	}
	last := lines[len(lines)-1]
	lines[len(lines)-1] = last[:len(last)/2] // torn tail
	lines = append(lines, "!!not json!!")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	col := obs.NewCollector()
	obs.Install(col)
	defer obs.Install(nil)
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Everything before the torn tail must survive; exactly one record
	// (the torn one) is gone. Which one was last in the file — and so
	// torn — depends on flush order, so track the survivors by key.
	var survivors []string
	for i := 0; i < 8; i++ {
		if k := fmt.Sprintf("k%d", i); holds(c2, "G", k) {
			survivors = append(survivors, k)
		}
	}
	if len(survivors) != 7 {
		t.Errorf("%d of 8 records survived the torn tail, want 7", len(survivors))
	}
	if st := c2.Stats(); st.CorruptLines != 2 {
		t.Errorf("Stats.CorruptLines = %d, want 2 (torn tail + junk line)", st.CorruptLines)
	}
	if v := col.Counter("evcache.corrupt_lines").Value(); v != 2 {
		t.Errorf("evcache.corrupt_lines counter = %d, want 2", v)
	}

	// The shard stays writable: the next flush rewrites a clean file.
	c2.Put("G", "fresh", testEntry(42))
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	c3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !holds(c3, "G", "fresh") {
		t.Error("fresh record lost after flushing a previously corrupted shard")
	}
	for _, k := range survivors {
		if !holds(c3, "G", k) {
			t.Errorf("record %s lost after flushing a previously corrupted shard", k)
		}
	}
	if st := c3.Stats(); st.CorruptLines != 0 {
		t.Errorf("rewritten shard still reports %d corrupt lines", st.CorruptLines)
	}
}
