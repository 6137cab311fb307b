package dist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"customfit/internal/core"
	"customfit/internal/dse"
	"customfit/internal/evcache"
	"customfit/internal/fleetcache"
	"customfit/internal/machine"
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

// countingTransport counts the coordinator's HTTP requests, and among
// them its explore submits: one per shard attempt.
type countingTransport struct {
	requests, submits atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.requests.Add(1)
	if r.Method == http.MethodPost && r.URL.Path == "/v1/explore" {
		c.submits.Add(1)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// BenchmarkFleetWarm is the end-to-end benchmark's fleet_warm operation
// itself: dist.Explore of the full space × {D, E, F, G} through two
// one-slot workers whose memory caches read through to a hub, over
// loopback. The hub serves a directory filled with made-up entries, one
// per machine and benchmark, shaped like real ones; a round before the
// timer pulls them into the workers, so nothing compiles. Beside the
// timing it reports shards/op (explore submits) and requests/op (every
// coordinator request: admission, submits and polls), which are exact:
// a poll is held until its shard ends, so each shard takes one.
func BenchmarkFleetWarm(b *testing.B) {
	archs := machine.FullSpace()
	benches := benchesByName("D", "E", "F", "G")
	const width = 96
	dir := b.TempDir()
	fill, err := evcache.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	for _, bm := range benches {
		kc := dse.KernelClass(bm, width, 1)
		for i, a := range archs {
			fill.Put(bm.Name, dse.CacheKey(kc, a), evcache.Entry{
				Unroll: 1 << (i % 4), Cycles: int64(20000 + 7*i), Spilled: i % 5, Runs: int64(i%4 + 1),
			})
		}
	}
	if err := fill.Close(); err != nil {
		b.Fatal(err)
	}
	hubCache, err := evcache.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = hubCache.Close() })
	// Each node a collector of its own, as in cfp-serve; the
	// coordinator's telemetry stays off, as in the end-to-end benchmark.
	hub := startWorker(b, serve.Options{Workers: 1, Collector: obs.NewCollector(), Cache: hubCache})
	var workers []string
	for range 2 {
		c, err := evcache.Open("")
		if err != nil {
			b.Fatal(err)
		}
		c.SetRemote(fleetcache.New(hub.URL, nil), evcache.RemoteOptions{})
		b.Cleanup(func() { _ = c.Close() })
		w := startWorker(b, serve.Options{Workers: 1, EvalParallelism: 1, Collector: obs.NewCollector(), Cache: c})
		workers = append(workers, w.URL)
	}
	tr := &countingTransport{}
	opts := Options{
		Workers:      workers,
		Benchmarks:   benches,
		Archs:        archs,
		Width:        width,
		PollInterval: 10 * time.Second,
		Client:       &http.Client{Transport: tr},
	}
	b.ReportAllocs()
	// Round 0 reads the hub through into the workers, outside the count.
	for i := -1; i < b.N; i++ {
		if i == 0 {
			tr.requests.Store(0)
			tr.submits.Store(0)
			b.ResetTimer()
		}
		res, err := Explore(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if st := res.Stats; st.Phases.Compile != 0 || st.Failures != 0 {
			b.Fatalf("not a warm run: %+v", st)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(tr.submits.Load())/float64(b.N), "shards/op")
	b.ReportMetric(float64(tr.requests.Load())/float64(b.N), "requests/op")
}
