package serve

import (
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

// TestCacheEndpoints: the fleet-cache endpoints are fleetcache.Handler
// over Options.Cache, mounted iff a cache is attached (the protocol
// itself is tested in internal/fleetcache). With a cache a peer's
// client round-trips through it and the four serve.cache_* counters
// move; without one the paths do not exist, which a read-through client
// sees as a miss and a write-behind client as an error.
func TestCacheEndpoints(t *testing.T) {
	cache, err := evcache.Open("")
	if err != nil {
		t.Fatal(err)
	}
	_, ts, col := newTestServer(t, Options{Workers: 1, Cache: cache})
	cache.Put("G", "k1", cacheEntry(1))
	cl := fleetcache.New(ts.URL, nil)

	if e, ok, err := cl.Lookup("G", "k1"); err != nil || !ok || e != cacheEntry(1) {
		t.Fatalf("Lookup hit = %+v, %v, %v", e, ok, err)
	}
	if _, ok, err := cl.Lookup("G", "absent"); ok || err != nil {
		t.Fatalf("Lookup miss = %v, %v; want false, nil", ok, err)
	}
	if err := cl.StoreBatch("G", []evcache.Record{{Key: "k2", Entry: cacheEntry(2)}}); err != nil {
		t.Fatal(err)
	}
	if got, ok := cache.Peek("G", "k2"); !ok || got != cacheEntry(2) {
		t.Errorf("put entry = %+v, %v", got, ok)
	}
	skewed := fleetcache.PutRequest{Fingerprint: "bogus-backend-v0", Schema: evcache.SchemaVersion,
		Put: []evcache.Record{{Key: "poison", Entry: cacheEntry(3)}}}
	if code := postJSON(t, ts.URL+"/v1/cache/G", skewed, nil); code != http.StatusConflict {
		t.Errorf("skewed put status %d, want 409", code)
	}
	for _, name := range []string{"serve.cache_gets", "serve.cache_get_misses", "serve.cache_puts", "serve.cache_put_refused"} {
		if v := col.Counter(name).Value(); v != 1 {
			t.Errorf("%s = %d, want 1", name, v)
		}
	}

	_, bare, _ := newTestServer(t, Options{Workers: 1})
	cl = fleetcache.New(bare.URL, nil)
	if _, ok, err := cl.Lookup("G", "k1"); ok || err != nil {
		t.Errorf("cacheless Lookup = %v, %v; want miss, nil", ok, err)
	}
	if err := cl.StoreBatch("G", []evcache.Record{{Key: "k", Entry: cacheEntry(1)}}); err == nil {
		t.Error("StoreBatch against a cacheless server succeeded")
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
// submit over maxSubmitBytes and a cache put over fleetcache.Handler's
// 8 MiB are answered 413, and nothing is queued or stored.
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
	for n := 0; n <= 8<<20; n += 64 {
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
