package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"customfit/internal/evcache"
	"customfit/internal/fleetcache"
	"customfit/internal/sched"
)

func cacheEntry(i int) evcache.Entry {
	return evcache.Entry{Unroll: 1 + i%4, Cycles: int64(100 + i), Runs: 1}
}

func TestCacheEndpoints(t *testing.T) {
	cache, err := evcache.Open("")
	if err != nil {
		t.Fatal(err)
	}
	_, ts, col := newTestServer(t, Options{Workers: 1, Cache: cache})
	cache.Put("G", "k1", cacheEntry(1))

	// GET hit: entry + fingerprint header.
	resp, err := http.Get(ts.URL + "/v1/cache/G/k1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET hit status %s", resp.Status)
	}
	if fp := resp.Header.Get(fleetcache.FingerprintHeader); fp != sched.Fingerprint() {
		t.Errorf("fingerprint header %q, want %q", fp, sched.Fingerprint())
	}
	var e evcache.Entry
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e != cacheEntry(1) {
		t.Fatalf("GET body = %+v, %v", e, err)
	}
	resp.Body.Close()

	// GET miss: 404 (still fingerprinted).
	resp, err = http.Get(ts.URL + "/v1/cache/G/absent")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET miss status %s, want 404", resp.Status)
	}

	// Batched put + has via the client.
	cl := fleetcache.New(ts.URL, nil)
	if err := cl.StoreBatch("G", []evcache.Record{{Key: "k2", Entry: cacheEntry(2)}}); err != nil {
		t.Fatal(err)
	}
	if got, ok := cache.Peek("G", "k2"); !ok || got != cacheEntry(2) {
		t.Errorf("put entry = %+v, %v", got, ok)
	}
	miss, err := cl.Missing("G", []string{"k1", "k2", "k3"})
	if err != nil || len(miss) != 1 || miss[0] != "k3" {
		t.Fatalf("Missing = %v, %v", miss, err)
	}

	if v := col.Counter("serve.cache_gets").Value(); v != 1 {
		t.Errorf("serve.cache_gets = %d, want 1", v)
	}
	if v := col.Counter("serve.cache_get_misses").Value(); v != 1 {
		t.Errorf("serve.cache_get_misses = %d, want 1", v)
	}
	if v := col.Counter("serve.cache_puts").Value(); v != 1 {
		t.Errorf("serve.cache_puts = %d, want 1", v)
	}
}

func TestCacheGCDropsUnreferencedShards(t *testing.T) {
	cache, err := evcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, _, col := newTestServer(t, Options{
		Workers: 1, Cache: cache,
		CacheGCEntries: 10, CacheGCJobs: 2,
	})
	// Three shards, 6 entries each: over the 10-entry budget.
	for _, sh := range []string{"A", "B", "C"} {
		for i := 0; i < 6; i++ {
			cache.Put(sh, fmt.Sprintf("k%d", i), cacheEntry(i))
		}
	}
	// Recent jobs reference only B and C; A is unreferenced and must be
	// dropped to move back toward the budget.
	s.noteCacheUse("B", "C")
	s.noteCacheUse("B", "C")
	if cache.Contains("A", "k0") {
		t.Error("unreferenced shard A survived GC over budget")
	}
	if !cache.Contains("B", "k0") || !cache.Contains("C", "k0") {
		t.Error("referenced shard dropped by GC")
	}
	if v := col.Counter("serve.cache_gc_shards").Value(); v < 1 {
		t.Errorf("serve.cache_gc_shards = %d, want >= 1", v)
	}
	// Referenced shards are never dropped, even while still over budget:
	// B+C hold 12 > 10 entries, but both are in the window.
	if cache.Resident() != 12 {
		t.Errorf("Resident = %d, want 12 (only A dropped)", cache.Resident())
	}
}

// TestExploreCacheOff: a request carrying Cache:"off" must bypass the
// server's cache entirely — the fleet-wide -cache=off contract.
func TestExploreCacheOff(t *testing.T) {
	cache, err := evcache.Open("")
	if err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newTestServer(t, Options{Workers: 1, Cache: cache})

	req := ExploreRequest{
		Benchmarks: []string{"G"},
		Width:      32,
		Archs:      []string{"2 1 64 1 4 1", "4 1 64 1 4 1"},
		Cache:      "off",
	}
	var sub SubmitResponse
	if code := postJSON(t, ts.URL+"/v1/explore", req, &sub); code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	if st := waitTerminal(t, ts.URL, sub.ID, 120*time.Second); st.State != StateDone {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}
	if n := cache.Resident(); n != 0 {
		t.Errorf("cache holds %d entries after a -cache=off job, want 0", n)
	}
	// The server cache's own counters, not the global evcache.misses: a
	// -cache=off job's evaluator counts its private memory tier there.
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("server cache stats %+v after a -cache=off job, want untouched (cache bypassed)", st)
	}
}

// TestOversizedBodiesRefused: request bodies are bounded. An explore
// submit over maxSubmitBytes and a cache put over maxCachePutBytes are
// answered 413, and nothing is queued or stored.
func TestOversizedBodiesRefused(t *testing.T) {
	cache, err := evcache.Open("")
	if err != nil {
		t.Fatal(err)
	}
	_, ts, col := newTestServer(t, Options{Workers: 1, Cache: cache})

	explore := ExploreRequest{Benchmarks: []string{"G"}, Width: 32}
	for n := 0; n <= maxSubmitBytes; n += len(`"2 1 64 1 4 1",`) {
		explore.Archs = append(explore.Archs, "2 1 64 1 4 1")
	}
	put := fleetcache.PutRequest{Fingerprint: sched.Fingerprint(), Schema: evcache.SchemaVersion}
	for n := 0; n <= maxCachePutBytes; n += 64 {
		key := fmt.Sprintf("k%063d", len(put.Put))
		put.Put = append(put.Put, evcache.Record{Key: key, Entry: cacheEntry(1)})
	}
	for _, c := range []struct {
		name, path string
		body       any
	}{
		{"explore submit", "/v1/explore", explore},
		{"cache put", "/v1/cache/G", put},
	} {
		var e ErrorResponse
		if code := postJSON(t, ts.URL+c.path, c.body, &e); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d (%s), want 413", c.name, code, e.Error)
		}
	}
	if v := col.Counter("serve.jobs_submitted").Value(); v != 0 {
		t.Errorf("an oversized submit queued %d jobs", v)
	}
	if n := cache.Resident(); n != 0 {
		t.Errorf("an oversized put stored %d entries", n)
	}
}
