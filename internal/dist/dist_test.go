package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"customfit/internal/bench"
	"customfit/internal/cli"
	"customfit/internal/core"
	"customfit/internal/dse"
	"customfit/internal/dse/dsetest"
	"customfit/internal/machine"
	"customfit/internal/obs"
	"customfit/internal/sched"
	"customfit/internal/serve"
)

// startWorker spins up a real cfp-serve node behind httptest.
func startWorker(t testing.TB, opts serve.Options) *httptest.Server {
	t.Helper()
	s := serve.New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	})
	return ts
}

// installCollector isolates obs counters per test (serve.New would
// otherwise install a process-wide one on first use).
func installCollector(t *testing.T) *obs.Collector {
	t.Helper()
	col := obs.NewCollector()
	obs.Install(col)
	t.Cleanup(func() { obs.Install(nil) })
	return col
}

// canonicalJSON strips the wall-clock timing fields (the only
// legitimately nondeterministic part of Results) and returns the rest
// as one JSON string, so equality means bit-identical measurements,
// grid, costs and accounting.
func canonicalJSON(t *testing.T, res *dse.Results) string {
	t.Helper()
	res.Stats.WallTime = 0
	res.Stats.PerArch = 0
	res.Stats.PerRun = 0
	res.Stats.Phases = dse.PhaseTimes{}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// fastOpts tightens the latency knobs for tests.
func fastOpts(workers ...string) Options {
	return Options{
		Workers:      workers,
		PollInterval: 10 * time.Millisecond,
		RetryBackoff: 2 * time.Millisecond,
	}
}

func benchesByName(names ...string) []*bench.Benchmark {
	var out []*bench.Benchmark
	for _, n := range names {
		out = append(out, bench.ByName(n))
	}
	return out
}

// TestDistributedMatchesLocalSampled runs a thinned grid on a
// two-worker fleet and requires the merged Results to be bit-identical
// (canonical JSON) to a local run with the same options — including the
// logical runs accounting.
func TestDistributedMatchesLocalSampled(t *testing.T) {
	col := installCollector(t)
	w1 := startWorker(t, serve.Options{Workers: 2, Collector: col})
	w2 := startWorker(t, serve.Options{Workers: 2, Collector: col})

	opts := fastOpts(w1.URL, w2.URL)
	opts.Benchmarks = benchesByName("G")
	opts.Sample = 24
	opts.Width = 32
	got, err := Explore(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}

	want, err := core.Explore(context.Background(), core.ExploreOptions{
		Benchmarks: benchesByName("G"),
		Sample:     24,
		Width:      32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := canonicalJSON(t, got), canonicalJSON(t, want); g != w {
		t.Errorf("distributed results diverge from local run\ndistributed: %.400s\nlocal:       %.400s", g, w)
	}
	if got.Stats.BaselineRuns != 0 {
		t.Errorf("merged BaselineRuns = %d, want 0 (baseline is in the grid)", got.Stats.BaselineRuns)
	}
	if v := col.Counter("dist.shards").Value(); v < 2 {
		t.Errorf("dist.shards = %d, want at least one shard per fleet slot", v)
	}
	// Every tuple scanned.
	if v := col.Counter("serve.tuple_fallbacks").Value(); v != 0 {
		t.Errorf("serve.tuple_fallbacks = %d on an op-free run", v)
	}
}

// TestGoldenDistributedFullSpace is the distributed leg of the golden
// full-space equivalence: the full 762-arch grid on G, F and DH,
// sharded over two workers, must merge to exactly those rows of the
// shipped results, which a local run pins (internal/dse).
func TestGoldenDistributedFullSpace(t *testing.T) {
	if testing.Short() {
		t.Skip("explores the full 762-arch space")
	}
	if raceEnabled {
		t.Skip("full-space exploration is minutes-slow under the race detector")
	}
	col := installCollector(t)
	w1 := startWorker(t, serve.Options{Workers: 2, Collector: col})
	w2 := startWorker(t, serve.Options{Workers: 2, Collector: col})

	opts := fastOpts(w1.URL, w2.URL)
	opts.Benchmarks = benchesByName("G", "F", "DH")
	want := dsetest.GFDH(t)
	got, err := Explore(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := canonicalJSON(t, got), canonicalJSON(t, want); g != w {
		if got.Stats.Runs != want.Stats.Runs {
			t.Errorf("merged Runs = %d, golden has %d (distributed accounting must preserve Table 3)",
				got.Stats.Runs, want.Stats.Runs)
		}
		t.Errorf("distributed full-space results diverge from the golden snapshot")
	}
}

// flakyWorker proxies a serve handler until killed, after which every
// request (including in-flight polls) gets a 500 — the coordinator's
// view of a worker dying mid-run.
type flakyWorker struct {
	h      http.Handler
	killed atomic.Bool
}

func (f *flakyWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.killed.Load() {
		http.Error(w, "worker killed by test", http.StatusInternalServerError)
		return
	}
	f.h.ServeHTTP(w, r)
	if r.Method == http.MethodPost && r.URL.Path == "/v1/explore" {
		f.killed.Store(true)
	}
}

// TestWorkerDiesMidShard kills a worker right after it accepts its
// first shard: the coordinator must retry the orphaned shards on the
// survivor and still merge bit-identically to a local run.
func TestWorkerDiesMidShard(t *testing.T) {
	col := installCollector(t)
	survivor := startWorker(t, serve.Options{Workers: 2, Collector: col})

	dying := serve.New(serve.Options{Workers: 2, Collector: col})
	flaky := &flakyWorker{h: dying.Handler()}
	dyingTS := httptest.NewServer(flaky)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = dying.Shutdown(ctx)
		dyingTS.Close()
	})

	// The dying worker is listed first so dispatch sends it shards.
	opts := fastOpts(dyingTS.URL, survivor.URL)
	opts.Benchmarks = benchesByName("G")
	opts.Sample = 24
	opts.Width = 32
	opts.maxRetries = 6
	got, err := Explore(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Explore(context.Background(), core.ExploreOptions{
		Benchmarks: benchesByName("G"),
		Sample:     24,
		Width:      32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := canonicalJSON(t, got), canonicalJSON(t, want); g != w {
		t.Errorf("results after worker death diverge from local run")
	}
	if v := col.Counter("dist.retries").Value(); v == 0 {
		t.Error("dist.retries = 0, want retries after the worker died")
	}
	if v := col.Counter("dist.worker_failures").Value(); v == 0 {
		t.Error("dist.worker_failures = 0, want the dead worker out of rotation")
	}
}

// fakeWorker is a minimal hand-rolled worker: healthy, accepts every
// shard, but its jobs never finish. It drives the hedging and
// cancellation paths deterministically.
type fakeWorker struct {
	fingerprint string
	capacity    int
	deletes     atomic.Int64
	submits     atomic.Int64
	// onSubmit, when set, runs after a submit is counted and before it
	// is answered: the window in which the worker has a job whose id the
	// coordinator does not know yet.
	onSubmit func()
	// deleted is closed by the first DELETE.
	deleted chan struct{}
}

func newFakeWorker(capacity int) *fakeWorker {
	return &fakeWorker{fingerprint: sched.Fingerprint(), capacity: capacity, deleted: make(chan struct{})}
}

func (f *fakeWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodGet && r.URL.Path == "/healthz":
		fmt.Fprintf(w, `{"status":"ok","workers":%d,"fingerprint":%q,"schema":%d}`, f.capacity, f.fingerprint, serve.SchemaVersion)
	case r.Method == http.MethodPost && r.URL.Path == "/v1/explore":
		id := f.submits.Add(1)
		if f.onSubmit != nil {
			f.onSubmit()
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"stuck%d","state":"queued"}`, id)
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		fmt.Fprint(w, `{"id":"stuck","kind":"explore","state":"running"}`)
	case r.Method == http.MethodDelete && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		if f.deletes.Add(1) == 1 {
			close(f.deleted)
		}
		fmt.Fprint(w, `{"id":"stuck","kind":"explore","state":"cancelled"}`)
	default:
		http.NotFound(w, r)
	}
}

// TestHedgeStraggler wedges one shard on a black-hole worker: the
// coordinator must duplicate it on the healthy worker (first result
// wins), cancel the loser with DELETE, and still merge bit-identically.
func TestHedgeStraggler(t *testing.T) {
	col := installCollector(t)
	healthy := startWorker(t, serve.Options{Workers: 2, Collector: col})
	stuck := newFakeWorker(1)
	stuckTS := httptest.NewServer(stuck)
	t.Cleanup(stuckTS.Close)

	// Black hole first in the list so dispatch parks a shard there.
	opts := fastOpts(stuckTS.URL, healthy.URL)
	opts.Benchmarks = benchesByName("G")
	opts.Sample = 24
	opts.Width = 32
	opts.hedgeAfter = time.Millisecond
	got, err := Explore(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Explore(context.Background(), core.ExploreOptions{
		Benchmarks: benchesByName("G"),
		Sample:     24,
		Width:      32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := canonicalJSON(t, got), canonicalJSON(t, want); g != w {
		t.Errorf("hedged results diverge from local run")
	}
	if v := col.Counter("dist.hedges").Value(); v == 0 {
		t.Error("dist.hedges = 0, want the wedged shard hedged onto the healthy worker")
	}
	if stuck.deletes.Load() == 0 {
		t.Error("losing hedge attempt was never cancelled with DELETE")
	}
}

// TestFingerprintMismatch: a worker whose backend fingerprint differs
// from the coordinator's must be refused before any work is dispatched.
func TestFingerprintMismatch(t *testing.T) {
	installCollector(t)
	good := startWorker(t, serve.Options{Workers: 1})
	skewed := newFakeWorker(1)
	skewed.fingerprint = "backend-v0;bogus"
	bad := httptest.NewServer(skewed)
	t.Cleanup(bad.Close)

	opts := fastOpts(good.URL, bad.URL)
	opts.Benchmarks = benchesByName("G")
	opts.Sample = 64
	opts.Width = 32
	_, err := Explore(context.Background(), opts)
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("Explore error = %v, want fingerprint refusal", err)
	}
}

// TestAdmissionAsksTheFleetAtOnce: the workers' health checks run
// concurrently — each of these two answers only once both have been
// asked — and of several refusals the one of the first worker in
// listing order is reported, although that worker answers last.
func TestAdmissionAsksTheFleetAtOnce(t *testing.T) {
	installCollector(t)
	var asked atomic.Int64
	both := make(chan struct{})
	start := func(fingerprint string, delay time.Duration) *httptest.Server {
		f := newFakeWorker(1)
		f.fingerprint = fingerprint
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/healthz" {
				if asked.Add(1) == 2 {
					close(both)
				}
				select {
				case <-both:
				case <-time.After(10 * time.Second):
					http.Error(w, "asked alone", http.StatusServiceUnavailable)
					return
				}
				time.Sleep(delay)
			}
			f.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	first := start("backend-v0;first", 50*time.Millisecond)
	second := start("backend-v0;second", 0)

	opts := fastOpts(first.URL, second.URL)
	opts.Benchmarks = benchesByName("G")
	opts.Sample = 64
	opts.Width = 32
	_, err := Explore(context.Background(), opts)
	if err == nil || !strings.Contains(err.Error(), first.URL) || !strings.Contains(err.Error(), `"backend-v0;first"`) {
		t.Fatalf("Explore error = %v, want the first worker's fingerprint refused", err)
	}
}

// TestHealthzAdmission: admission reads what two workers of one server
// advertise. A request schema other than serve.SchemaVersion is refused,
// naming the first worker and both schemas; a /healthz that streams
// without end is refused under its cap; and a capacity past any grid
// neither wraps the fleet's slot count nor stops the run merging ==
// local. Dispatch believes the capacity, so the first worker is handed
// every unit at once: the server's queue is made deep enough to hold
// them, where the default depth would answer 503 until both workers
// leave rotation.
func TestHealthzAdmission(t *testing.T) {
	installCollector(t)
	s := serve.New(serve.Options{Workers: 2, QueueDepth: 256})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	schema := func(v int) func(*serve.HealthResponse) {
		return func(h *serve.HealthResponse) { h.Schema = v }
	}
	refused := func(v int) string {
		return fmt.Sprintf("request schema %d does not match coordinator %d", v, serve.SchemaVersion)
	}
	for _, tc := range []struct {
		name string
		edit func(*serve.HealthResponse) // nil: /healthz streams without end
		// refusal is what the run's error says; "" wants a merge.
		refusal string
	}{
		{"endless healthz", nil, "exceeds"},
		{"workers past any grid", func(h *serve.HealthResponse) { h.Workers = math.MaxInt64 }, ""},
		{"no schema", schema(0), refused(0)},
		{"schema 2", schema(serve.SchemaOps), refused(serve.SchemaOps)},
		{"a newer schema", schema(serve.SchemaVersion + 1), refused(serve.SchemaVersion + 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			proxy := func() *httptest.Server {
				ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path != "/healthz" {
						s.Handler().ServeHTTP(w, r)
						return
					}
					if tc.edit == nil {
						_, _ = io.WriteString(w, `{"status":"ok","fingerprint":"`)
						for r.Context().Err() == nil {
							if _, err := io.WriteString(w, strings.Repeat("x", 1024)); err != nil {
								return
							}
						}
						return
					}
					rec := httptest.NewRecorder()
					s.Handler().ServeHTTP(rec, r)
					var h serve.HealthResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
						t.Error(err)
					}
					tc.edit(&h)
					_ = json.NewEncoder(w).Encode(h)
				}))
				t.Cleanup(ts.Close)
				return ts
			}
			first, second := proxy(), proxy()
			opts := fastOpts(first.URL, second.URL)
			opts.Benchmarks = benchesByName("G")
			opts.Sample = 24
			opts.Width = 32
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			got, err := Explore(ctx, opts)
			if tc.refusal != "" {
				if err == nil || !strings.Contains(err.Error(), first.URL) || !strings.Contains(err.Error(), tc.refusal) {
					t.Fatalf("Explore error = %v, want %s refused: %s", err, first.URL, tc.refusal)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Explore(context.Background(), core.ExploreOptions{Benchmarks: benchesByName("G"), Sample: 24, Width: 32})
			if err != nil {
				t.Fatal(err)
			}
			if canonicalJSON(t, got) != canonicalJSON(t, want) {
				t.Error("results diverge from the local run")
			}
		})
	}
}

// TestMinMaxGridRefused: the wire tuple has no min/max flag, so a grid
// with a MinMax machine is refused, naming it, before any shard is
// submitted: sharded, its results would fail every check and strike
// healthy workers.
func TestMinMaxGridRefused(t *testing.T) {
	installCollector(t)
	w := newFakeWorker(1)
	ts := httptest.NewServer(w)
	t.Cleanup(ts.Close)

	mm := machine.Arch{ALUs: 4, MULs: 2, Regs: 128, L2Ports: 2, L2Lat: 2, Clusters: 1}.WithMinMax()
	opts := fastOpts(ts.URL)
	opts.Benchmarks = benchesByName("G")
	opts.Archs = []machine.Arch{machine.Baseline, mm}
	opts.Width = 32
	// The fake worker never finishes a job: a run that submits ends here.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := Explore(ctx, opts)
	if err == nil || !strings.Contains(err.Error(), mm.String()) || !strings.Contains(err.Error(), "min/max") {
		t.Fatalf("Explore error = %v, want a refusal naming %v", err, mm)
	}
	if n := w.submits.Load(); n != 0 {
		t.Errorf("worker saw %d submits, want 0", n)
	}
}

// TestRepeatedBenchmarkRefused: a benchmark named twice is refused
// before any shard is submitted, as the local explorer refuses it — the
// merge keeps one row per name, which both would fill.
func TestRepeatedBenchmarkRefused(t *testing.T) {
	installCollector(t)
	w := newFakeWorker(1)
	ts := httptest.NewServer(w)
	t.Cleanup(ts.Close)

	opts := fastOpts(ts.URL)
	opts.Benchmarks = benchesByName("G", "G")
	opts.Sample = 64
	opts.Width = 32
	// The fake worker never finishes a job: a run that submits ends here.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := Explore(ctx, opts)
	if err == nil || !strings.Contains(err.Error(), "G given twice") {
		t.Fatalf("Explore error = %v, want the repeated benchmark refused", err)
	}
	if n := w.submits.Load(); n != 0 {
		t.Errorf("worker saw %d submits, want 0", n)
	}
}

// TestCancellation: cancelling the coordinator's context must abort the
// run with ErrCancelled and DELETE the in-flight shard jobs — also the
// job whose submit the worker has accepted but not yet answered when
// the cancel lands, whose id only that answer carries.
func TestCancellation(t *testing.T) {
	for name, midSubmit := range map[string]bool{"while polling": false, "between submit and its answer": true} {
		t.Run(name, func(t *testing.T) {
			installCollector(t)
			stuck := newFakeWorker(2)
			stuckTS := httptest.NewServer(stuck)
			t.Cleanup(stuckTS.Close)

			opts := fastOpts(stuckTS.URL)
			opts.Benchmarks = benchesByName("G")
			opts.Sample = 64
			opts.Width = 32
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if midSubmit {
				stuck.onSubmit = cancel
			} else {
				go func() {
					// Let at least one shard get submitted, then pull the plug.
					for stuck.submits.Load() == 0 {
						time.Sleep(2 * time.Millisecond)
					}
					cancel()
				}()
			}
			_, err := Explore(ctx, opts)
			if !errors.Is(err, dse.ErrCancelled) {
				t.Fatalf("Explore error = %v, want ErrCancelled", err)
			}
			// Reaping is best effort with a bounded wait, so on a saturated
			// machine Explore may return before a DELETE lands. Wait for
			// the event itself; a run that never sends one ends in go
			// test's -timeout, with this goroutine in the dump.
			<-stuck.deleted
		})
	}
}

// TestPartitionInvariants checks the sharding algebra directly: one
// unit per fleet slot (or per class, when the slots outnumber them),
// every grid cell in exactly one unit, classes whole and dealt evenly,
// each machine formatted and digested once, and the same grid and
// slots cut the same way every time. Every unit carries every
// benchmark (TestOneUnitPerSlot checks the requests), so this covers
// every (benchmark, grid cell).
func TestPartitionInvariants(t *testing.T) {
	grid := machine.Grid(nil, 8, nil)
	nclasses := len(dse.SignatureClasses(grid))
	for _, slots := range []int{1, 2, 3, 6, nclasses, nclasses + 5} {
		units := partitionUnits(grid, slots)
		if want := min(slots, nclasses); len(units) != want {
			t.Fatalf("%d slots: %d units, want %d", slots, len(units), want)
		}
		unitOf := map[int]int{}     // grid index -> unit id
		classOf := map[string]int{} // signature -> unit id
		classesIn := map[int]int{}  // unit id -> whole classes
		for _, u := range units {
			if len(u.tuples) != len(u.indices) {
				t.Fatalf("unit %d: %d tuples for %d machines", u.id, len(u.tuples), len(u.indices))
			}
			digest := serve.EmptyDigest
			for k, gi := range u.indices {
				if k > 0 && u.indices[k-1] >= gi {
					t.Fatalf("unit %d: indices %v not ascending", u.id, u.indices)
				}
				if prev, ok := unitOf[gi]; ok {
					t.Fatalf("grid cell %d in units %d and %d", gi, prev, u.id)
				}
				unitOf[gi] = u.id
				sig := dse.SigKey(grid[gi])
				if prev, ok := classOf[sig]; !ok {
					classOf[sig] = u.id
					classesIn[u.id]++
				} else if prev != u.id {
					t.Fatalf("signature class %q split across units %d and %d", sig, prev, u.id)
				}
				if got, err := cli.ParseArch(u.tuples[k]); err != nil || got != grid[gi] {
					t.Fatalf("unit %d tuple %q for %v", u.id, u.tuples[k], grid[gi])
				}
				digest = digest.Add(grid[gi])
			}
			if u.digest != digest {
				t.Errorf("unit %d digest %016x, want %016x", u.id, uint64(u.digest), uint64(digest))
			}
		}
		// Every cell is in one unit, so the tuples of all units together
		// format each machine once.
		if len(unitOf) != len(grid) {
			t.Fatalf("%d slots: %d of %d grid cells covered", slots, len(unitOf), len(grid))
		}
		least, most := nclasses, 0
		for _, u := range units {
			least, most = min(least, classesIn[u.id]), max(most, classesIn[u.id])
		}
		if most-least > 1 {
			t.Errorf("%d slots: chunks of %d to %d classes, want counts within one", slots, least, most)
		}
		if again := partitionUnits(grid, slots); !reflect.DeepEqual(again, units) {
			t.Errorf("%d slots: the same grid cut two ways", slots)
		}
	}

	// A duplicated grid is one class, one unit, both cells dispatched.
	du := partitionUnits([]machine.Arch{machine.Baseline, machine.Baseline}, 4)
	if len(du) != 1 || len(du[0].indices) != 2 {
		t.Errorf("duplicate-arch grid produced %d units", len(du))
	}
}

// TestPartitionAllocs: partitioning costs objects per unit, not per
// machine — the same count on the full space as on its first 100
// machines, at any number of slots.
func TestPartitionAllocs(t *testing.T) {
	grid := machine.FullSpace()
	for _, slots := range []int{1, 2, 8} {
		full := testing.AllocsPerRun(20, func() { partitionUnits(grid, slots) })
		part := testing.AllocsPerRun(20, func() { partitionUnits(grid[:100], slots) })
		if full != part {
			t.Errorf("%d slots: partitioning %d machines makes %v objects, 100 machines %v", slots, len(grid), full, part)
		}
	}
}

// TestOneUnitPerSlot: on an idle fleet of a one-slot and a three-slot
// worker, every slot is handed exactly one unit, and every unit asks
// for all of the run's benchmarks in run order.
func TestOneUnitPerSlot(t *testing.T) {
	installCollector(t)
	var mu sync.Mutex
	var asked [][]string
	start := func(capacity int) (*fakeWorker, *httptest.Server) {
		f := newFakeWorker(capacity)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/explore" {
				var req serve.ExploreRequest
				body, err := io.ReadAll(r.Body)
				if err == nil {
					err = json.Unmarshal(body, &req)
				}
				if err != nil {
					t.Error(err)
				}
				mu.Lock()
				asked = append(asked, req.Benchmarks)
				mu.Unlock()
			}
			f.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		return f, ts
	}
	one, oneTS := start(1)
	three, threeTS := start(3)

	opts := fastOpts(oneTS.URL, threeTS.URL)
	opts.Benchmarks = benchesByName("G", "F", "DH")
	opts.Sample = 24
	opts.Width = 32
	opts.hedgeAfter = -1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The fake workers never finish a job: once every slot holds one,
	// nothing more is dispatched, and the run is cancelled.
	go func() {
		for one.submits.Load()+three.submits.Load() < 4 {
			time.Sleep(2 * time.Millisecond)
		}
		cancel()
	}()
	if _, err := Explore(ctx, opts); !errors.Is(err, dse.ErrCancelled) {
		t.Fatalf("Explore error = %v, want ErrCancelled", err)
	}
	if n1, n3 := one.submits.Load(), three.submits.Load(); n1 != 1 || n3 != 3 {
		t.Errorf("workers of 1 and 3 slots were handed %d and %d units, want 1 and 3", n1, n3)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, names := range asked {
		if !slices.Equal(names, []string{"G", "F", "DH"}) {
			t.Errorf("a unit asked for %v, want [G F DH]", names)
		}
	}
}
