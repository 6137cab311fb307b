package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"customfit/internal/bench"
	"customfit/internal/core"
	"customfit/internal/dist"
	"customfit/internal/dse"
	"customfit/internal/evcache"
	"customfit/internal/fleetcache"
	"customfit/internal/machine"
	"customfit/internal/obs"
	"customfit/internal/serve"
)

// fleet is the production -cache-peer topology inside this process, over
// loopback: a hub that only serves its disk cache, and two workers whose
// memory caches read through to it and write behind.
type fleet struct {
	hub     *httptest.Server
	workers []*httptest.Server
	serves  []*serve.Server
	caches  []*evcache.Cache // hub first, then one per worker
}

func startFleet(hubDir string) (*fleet, error) {
	f := &fleet{}
	hubCache, err := evcache.Open(hubDir)
	if err != nil {
		return nil, err
	}
	f.caches = append(f.caches, hubCache)
	f.hub = f.node(serve.Options{Workers: 1, Cache: hubCache})
	for i := 0; i < 2; i++ {
		c, err := evcache.Open("")
		if err != nil {
			f.stop()
			return nil, err
		}
		c.SetRemote(fleetcache.New(f.hub.URL, nil), evcache.RemoteOptions{})
		f.caches = append(f.caches, c)
		f.workers = append(f.workers, f.node(serve.Options{Workers: 1, EvalParallelism: 1, Cache: c}))
	}
	return f, nil
}

func (f *fleet) node(opts serve.Options) *httptest.Server {
	// A collector of its own, so serve.New installs none: the program's
	// obs spans stay off.
	opts.Collector = obs.NewCollector()
	s := serve.New(opts)
	f.serves = append(f.serves, s)
	return httptest.NewServer(s.Handler())
}

func (f *fleet) workerURLs() []string {
	var urls []string
	for _, w := range f.workers {
		urls = append(urls, w.URL)
	}
	return urls
}

// syncRemote drains the workers' write-behind queues into the hub.
func (f *fleet) syncRemote() {
	for _, c := range f.caches[1:] {
		c.SyncRemote()
	}
}

// stop shuts every node down and waits for its goroutines.
func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, s := range f.serves {
		_ = s.Shutdown(ctx) // a timeout cancels the jobs; nothing to report
	}
	for _, ts := range append(f.workers, f.hub) {
		if ts != nil {
			ts.Close()
		}
	}
	for _, c := range f.caches {
		_ = c.Close() // caches of a finished benchmark; nothing reads them again
	}
}

// httpCall is one coordinator-side round trip, timed to the end of the
// response body.
type httpCall struct {
	Route string // method + route, job and cache ids removed
	Job   string // host + job path, for submits and polls
	Dur   time.Duration
	Bytes int
	Start time.Time
}

// timingTransport is the http.RoundTripper handed to dist.Options.Client:
// it measures the serve layer from outside, keyed by method and route.
type timingTransport struct {
	base http.RoundTripper

	mu    sync.Mutex
	calls []httpCall
	// parent, when set, is the op span round trips are recorded under.
	parent *spanRef
}

func newTimingTransport() *timingTransport {
	return &timingTransport{base: http.DefaultTransport}
}

func (t *timingTransport) setParent(sp *spanRef) {
	t.mu.Lock()
	t.parent = sp
	t.mu.Unlock()
}

// take returns the calls recorded so far and forgets them.
func (t *timingTransport) take() []httpCall {
	t.mu.Lock()
	defer t.mu.Unlock()
	calls := t.calls
	t.calls = nil
	return calls
}

func routeOf(method, path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/jobs/"):
		path = "/v1/jobs/{id}"
	case strings.HasPrefix(path, "/v1/cache/"):
		path = "/v1/cache/{shard}"
	}
	return method + " " + path
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	parent := t.parent
	t.mu.Unlock()
	call := httpCall{Route: routeOf(req.Method, req.URL.Path), Start: time.Now()}
	sp := parent.child("http " + call.Route)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.end()
		return nil, err
	}
	// The bodies are small JSON documents: read them here, so the call
	// is timed to its last byte and a submit's job id can be read.
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sp.end()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	call.Dur = time.Since(call.Start)
	call.Bytes = len(body)
	switch call.Route {
	case "POST /v1/explore":
		var sub serve.SubmitResponse
		if json.Unmarshal(body, &sub) == nil && sub.ID != "" {
			call.Job = req.URL.Host + "/v1/jobs/" + sub.ID
		}
	case "GET /v1/jobs/{id}":
		call.Job = req.URL.Host + req.URL.Path
	}
	t.mu.Lock()
	t.calls = append(t.calls, call)
	t.mu.Unlock()
	return resp, nil
}

// ---------------------------------------------------------------------
// fleet_warm

type fleetInst struct {
	cfg      config
	fleet    *fleet
	hubDir   string
	opts     dist.Options
	tr       *timingTransport
	want     *dse.Results
	wantJSON string
	got      []*dse.Results
}

func newFleetWarm(cfg config) (instance, error) {
	kernels, archs := warmGrid(cfg)
	dir, err := os.MkdirTemp(cfg.TmpDir, "hub")
	if err != nil {
		return nil, err
	}
	x := &fleetInst{cfg: cfg, hubDir: dir, tr: newTimingTransport()}
	if x.fleet, err = startFleet(dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	x.opts = fleetOptions(x.fleet, x.tr, kernels, archs)
	// The cold fleet run fills every tier. Every warm run must repeat
	// its answer, and finish holds that answer against a local run.
	x.want, err = dist.Explore(context.Background(), x.opts)
	if err == nil {
		x.wantJSON, err = canonicalJSON(x.want)
	}
	if err != nil {
		x.close()
		return nil, err
	}
	x.fleet.syncRemote()
	x.tr.take()
	return x, nil
}

func fleetOptions(f *fleet, tr *timingTransport, kernels []*bench.Benchmark, archs []machine.Arch) dist.Options {
	return dist.Options{
		Workers:      f.workerURLs(),
		Benchmarks:   kernels,
		Archs:        archs,
		Width:        exploreWidth,
		PollInterval: 5 * time.Millisecond,
		RetryBackoff: 2 * time.Millisecond,
		Client:       &http.Client{Transport: tr},
	}
}

func (x *fleetInst) pass(p *pass) error {
	for i, n := 0, x.cfg.scaled(20, 2); i < n; i++ {
		p.op("fleet_warm.op", func(sp *spanRef) (int, error) {
			x.tr.setParent(sp)
			defer x.tr.setParent(nil)
			var res *dse.Results
			var err error
			timed(sp, "dist.Explore", func() { res, err = dist.Explore(context.Background(), x.opts) })
			if err != nil {
				return 0, err
			}
			x.got = append(x.got, res)
			return len(res.Benches) * len(res.Archs), nil
		})
	}
	return nil
}

func (x *fleetInst) check(p *pass) {
	for _, res := range x.got {
		got, err := canonicalJSON(res)
		switch {
		case err != nil:
			p.fail("encode results: %v", err)
		case got != x.wantJSON:
			p.fail("warm fleet results differ from the cold fleet run")
		}
	}
	x.got = x.got[:0]
	x.tr.take()
}

func (x *fleetInst) finish(p *pass) (fit, cycles float64) {
	countFailedEvals(p, x.want)
	local, err := core.Explore(context.Background(), core.ExploreOptions{
		Benchmarks: x.opts.Benchmarks, Archs: x.opts.Archs, Width: exploreWidth, Parallelism: parallelism,
	})
	if err != nil {
		p.fail("local run: %v", err)
	} else if got, err := canonicalJSON(local); err != nil || got != x.wantJSON {
		p.fail("fleet results differ from the local run (%v)", err)
	}
	return resultsQuality(x.want)
}

func (x *fleetInst) replayInputs() replayInputs {
	return replayInputs{Kernels: x.opts.Benchmarks, Archs: x.opts.Archs, Width: exploreWidth, Results: x.want}
}

func (x *fleetInst) close() {
	x.fleet.stop()
	os.RemoveAll(x.hubDir)
}
