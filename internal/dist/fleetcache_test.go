package dist

import (
	"context"
	"net/http/httptest"
	"testing"

	"customfit/internal/core"
	"customfit/internal/evcache"
	"customfit/internal/fleetcache"
	"customfit/internal/obs"
	"customfit/internal/serve"
)

// fleetWorker spins up a cfp-serve worker whose local cache is tiered
// onto hub's /v1/cache endpoints — the production -cache-peer topology.
func fleetWorker(t *testing.T, hubURL string, col *obs.Collector) (*httptest.Server, *evcache.Cache) {
	t.Helper()
	c, err := evcache.Open("")
	if err != nil {
		t.Fatal(err)
	}
	c.SetRemote(fleetcache.New(hubURL, nil), evcache.RemoteOptions{})
	t.Cleanup(func() { _ = c.Close() })
	ts := startWorker(t, serve.Options{Workers: 2, Collector: col, Cache: c})
	return ts, c
}

// TestGoldenFleetWarmThreePass is the fleet cache's golden test — three
// passes over one shared tier:
//
//  1. cold fleet {A,B}: everything computes, write-behind fills the hub
//  2. warm fleet {A,B}: zero new compilations anywhere
//  3. fresh worker C joins {A,B,C}: C compiles ~nothing — every shard it
//     is handed reads through to entries the fleet already computed
//
// All three merges must be bit-identical to each other and to a local
// run: the cache tier is a pure accelerator.
func TestGoldenFleetWarmThreePass(t *testing.T) {
	col := installCollector(t)
	hubCache, err := evcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hubCache.Close() })
	// The hub serves only cache traffic; it is not in the worker list.
	hub := startWorker(t, serve.Options{Workers: 1, Collector: col, Cache: hubCache})
	wA, cA := fleetWorker(t, hub.URL, col)
	wB, cB := fleetWorker(t, hub.URL, col)

	opts := fastOpts(wA.URL, wB.URL)
	opts.Benchmarks = benchesByName("G")
	opts.Sample = 24
	opts.Width = 32

	want, err := core.Explore(context.Background(), core.ExploreOptions{
		Benchmarks: benchesByName("G"), Sample: 24, Width: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := canonicalJSON(t, want)

	// Pass 1: cold fleet.
	r1, err := Explore(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if g := canonicalJSON(t, r1); g != wantJSON {
		t.Errorf("cold fleet results diverge from local run")
	}
	coldComputes := cA.Stats().Computes + cB.Stats().Computes
	if coldComputes == 0 {
		t.Fatal("cold fleet reported zero computes — test is not exercising the backend")
	}
	// Drain write-behind so the hub holds the whole run before pass 2.
	cA.SyncRemote()
	cB.SyncRemote()

	// Pass 2: warm fleet — no new compilation anywhere.
	r2, err := Explore(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if g := canonicalJSON(t, r2); g != wantJSON {
		t.Errorf("warm fleet results diverge from local run")
	}
	if n := cA.Stats().Computes + cB.Stats().Computes; n != coldComputes {
		t.Errorf("warm fleet computed %d new sweeps, want 0", n-coldComputes)
	}

	// Pass 3: a fresh worker joins the warm fleet. Every shard it gets
	// reads through to the hub, so it performs ~0 backend compilations.
	wC, cC := fleetWorker(t, hub.URL, col)
	opts3 := fastOpts(wA.URL, wB.URL, wC.URL)
	opts3.Benchmarks = benchesByName("G")
	opts3.Sample = 24
	opts3.Width = 32
	r3, err := Explore(context.Background(), opts3)
	if err != nil {
		t.Fatal(err)
	}
	if g := canonicalJSON(t, r3); g != wantJSON {
		t.Errorf("warm fleet + fresh worker results diverge from local run")
	}
	st := cC.Stats()
	if st.Computes != 0 {
		t.Errorf("fresh worker computed %d sweeps against a warm fleet, want 0", st.Computes)
	}
	if st.NetHits == 0 && st.Hits == 0 {
		t.Error("fresh worker recorded no cache hits at all — was it even dispatched shards?")
	}
	if v := col.Counter("evcache.net_hits").Value(); v == 0 {
		t.Error("evcache.net_hits = 0 across the three passes")
	}
}

// TestCacheModeOffPropagates: the coordinator's -cache=off must ride
// every shard request — workers with their own caches attached leave
// them untouched.
func TestCacheModeOffPropagates(t *testing.T) {
	col := installCollector(t)
	wCache, err := evcache.Open("")
	if err != nil {
		t.Fatal(err)
	}
	w := startWorker(t, serve.Options{Workers: 2, Collector: col, Cache: wCache})

	opts := fastOpts(w.URL)
	opts.Benchmarks = benchesByName("G")
	opts.Sample = 24
	opts.Width = 32
	opts.CacheMode = "off"
	got, err := Explore(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Explore(context.Background(), core.ExploreOptions{
		Benchmarks: benchesByName("G"), Sample: 24, Width: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := canonicalJSON(t, got), canonicalJSON(t, want); g != w {
		t.Errorf("cache-off distributed results diverge from local run")
	}
	if n := wCache.Resident(); n != 0 {
		t.Errorf("worker cache holds %d entries after a -cache=off fleet run, want 0 (untouched)", n)
	}
}
