package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"customfit/internal/core"
	"customfit/internal/dse"
	"customfit/internal/dse/dsetest"
	"customfit/internal/serve"
)

// editDone relays h, passing the result of every finished explore it
// answers through edit first.
func editDone(t *testing.T, h http.Handler, edit func(result []byte) []byte) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var st serve.JobStatus
		if r.Method != http.MethodGet || !strings.HasPrefix(r.URL.Path, "/v1/jobs/") ||
			json.Unmarshal(rec.Body.Bytes(), &st) != nil || st.State != serve.StateDone {
			w.WriteHeader(rec.Code)
			_, _ = w.Write(rec.Body.Bytes())
			return
		}
		st.Result = edit(st.Result)
		_ = json.NewEncoder(w).Encode(st)
	})
}

// schema2 relays h as a worker from before serve.SchemaMeasured: its
// /healthz advertises no schema, and it refuses a submit that declares
// a newer one with 409, as such a worker does.
func schema2(t *testing.T, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodGet && r.URL.Path == "/healthz":
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			var hr serve.HealthResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
				t.Error(err)
			}
			hr.Schema = 0
			w.WriteHeader(rec.Code)
			_ = json.NewEncoder(w).Encode(hr)
			return
		case r.Method == http.MethodPost && r.URL.Path == "/v1/explore":
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			var req serve.ExploreRequest
			if json.Unmarshal(body, &req) == nil && req.Schema > serve.SchemaOps {
				w.WriteHeader(http.StatusConflict)
				_ = json.NewEncoder(w).Encode(serve.ErrorResponse{Error: "request schema exceeds supported 2"})
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		h.ServeHTTP(w, r)
	})
}

// rewriteDone relays h as a worker from before serve.SchemaMeasured,
// passing the results document of every finished explore it answers
// through edit first: a worker that lies about its shards.
func rewriteDone(t *testing.T, h http.Handler, edit func(*dse.Results)) http.Handler {
	return schema2(t, editDone(t, h, func(result []byte) []byte {
		res, err := dse.FromJSON(result)
		if err != nil {
			t.Error(err)
			return result
		}
		edit(res)
		if result, err = res.JSON(); err != nil {
			t.Error(err)
		}
		return result
	}))
}

// rewriteMeasured relays h, passing the measurement document of every
// finished explore it answers through edit first: a worker of
// serve.SchemaMeasured that lies about its shards.
func rewriteMeasured(t *testing.T, h http.Handler, edit func(*serve.Measurement)) http.Handler {
	return editDone(t, h, func(result []byte) []byte {
		m, err := serve.ReadMeasurement(result)
		if err != nil {
			t.Error(err)
			return result
		}
		edit(m)
		if result, err = serve.AppendMeasurement(nil, m); err != nil {
			t.Error(err)
		}
		return result
	})
}

// misorder answers every finished explore of h with its evaluations for
// the right machines in the wrong order — or, for a one-machine shard,
// for another machine: a worker whose results merge would put in the
// wrong cells.
func misorder(t *testing.T, h http.Handler) http.Handler {
	return rewriteDone(t, h, func(res *dse.Results) {
		for _, evs := range res.Eval {
			slices.Reverse(evs)
			if len(evs) == 1 {
				evs[0].Arch.Regs *= 2
			}
		}
	})
}

// TestMisorderedShardIsRetried: a shard answered with its evaluations
// in another order, or for other machines — by a worker without schema
// 3 — or with a measurement of one machine fewer, or of machines whose
// digest is not the one asked for, fails its attempt like a dead
// worker: the shard is retried on the honest worker, the liar is taken
// out of rotation after its second strike, and the run merges == local.
func TestMisorderedShardIsRetried(t *testing.T) {
	for name, lie := range map[string]func(http.Handler) http.Handler{
		"misordered results": func(h http.Handler) http.Handler { return misorder(t, h) },
		"a cell short": func(h http.Handler) http.Handler {
			return rewriteMeasured(t, h, func(m *serve.Measurement) {
				m.Machines--
				m.Cells = m.Cells[:len(m.Cells)-1]
			})
		},
		"another digest": func(h http.Handler) http.Handler {
			return rewriteMeasured(t, h, func(m *serve.Measurement) { m.Digest ^= 1 })
		},
	} {
		t.Run(name, func(t *testing.T) { exploreWithLiar(t, lie, "G") })
	}
}

// TestMultiBenchmarkAnswerIsChecked: a shard carries every benchmark of
// the run, and a measurement that names them in another order, leaves
// one out, or holds cells for fewer machines than the shard has fails
// its attempt like a misordered machine list does.
func TestMultiBenchmarkAnswerIsChecked(t *testing.T) {
	for name, edit := range map[string]func(*serve.Measurement){
		"benchmarks in another order": func(m *serve.Measurement) {
			n := m.Machines
			slices.Reverse(m.Benches)
			m.Cells = append(m.Cells[n:], m.Cells[:n]...)
		},
		"a benchmark short": func(m *serve.Measurement) {
			m.Benches = m.Benches[:1]
			m.Cells = m.Cells[:m.Machines]
		},
		"cells for fewer machines": func(m *serve.Measurement) {
			n := m.Machines
			m.Machines--
			m.Cells = append(m.Cells[:n-1:n-1], m.Cells[n:2*n-1]...)
		},
	} {
		t.Run(name, func(t *testing.T) {
			exploreWithLiar(t, func(h http.Handler) http.Handler { return rewriteMeasured(t, h, edit) }, "G", "F")
		})
	}
}

// exploreWithLiar explores benches on a fleet of a worker that answers
// through lie and an honest one, and requires the liar's shards to be
// retried, the liar to be taken out of rotation after its second
// strike, and the run to merge to the local one.
func exploreWithLiar(t *testing.T, lie func(http.Handler) http.Handler, benches ...string) {
	col := installCollector(t)
	honest := startWorker(t, serve.Options{Workers: 2, Collector: col})
	ls := serve.New(serve.Options{Workers: 2, Collector: col})
	liar := httptest.NewServer(lie(ls.Handler()))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = ls.Shutdown(ctx)
		liar.Close()
	})

	// The liar first, so dispatch hands it shards.
	opts := fastOpts(liar.URL, honest.URL)
	opts.Benchmarks = benchesByName(benches...)
	opts.Sample = 24
	opts.Width = 32
	opts.hedgeAfter = -1
	got, err := Explore(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Explore(context.Background(), core.ExploreOptions{Benchmarks: benchesByName(benches...), Sample: 24, Width: 32})
	if err != nil {
		t.Fatal(err)
	}
	if canonicalJSON(t, got) != canonicalJSON(t, want) {
		t.Error("results after a lying shard diverge from the local run")
	}
	if v := col.Counter("dist.retries").Value(); v < 2 {
		t.Errorf("dist.retries = %d, want the liar's shards retried", v)
	}
	if v := col.Counter("dist.worker_failures").Value(); v != 1 {
		t.Errorf("dist.worker_failures = %d, want the liar out of rotation", v)
	}
}

// TestCoordinatorPricesWhatItMerges: a worker that prices its shards,
// as one from before the unpriced member does, then doubles every Time
// and Speedup it reports and leaves the measurements alone, does not
// move the merged results. The coordinator prices the cells it merges
// itself, so only a shard's cycles, unroll factors, spills and failures
// reach them.
func TestCoordinatorPricesWhatItMerges(t *testing.T) {
	col := installCollector(t)
	ls := serve.New(serve.Options{Workers: 2, Collector: col})
	var doubled atomic.Int64 // evaluations whose non-zero prices were doubled
	doubler := httptest.NewServer(stripUnpriced(t, rewriteDone(t, ls.Handler(), func(res *dse.Results) {
		for _, evs := range res.Eval {
			for i := range evs {
				if evs[i].Time != 0 && evs[i].Speedup != 0 {
					doubled.Add(1)
				}
				evs[i].Time *= 2
				evs[i].Speedup *= 2
			}
		}
	})))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = ls.Shutdown(ctx)
		doubler.Close()
	})

	opts := fastOpts(doubler.URL)
	opts.Benchmarks = benchesByName("G", "F")
	opts.Sample = 24
	opts.Width = 32
	got, err := Explore(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Explore(context.Background(), core.ExploreOptions{Benchmarks: benchesByName("G", "F"), Sample: 24, Width: 32})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := canonicalJSON(t, got), canonicalJSON(t, want); g != w {
		t.Errorf("merged results take a worker's prices\ndistributed: %.400s\nlocal:       %.400s", g, w)
	}
	if doubled.Load() == 0 {
		t.Error("the worker reported no non-zero prices to double")
	}
}

// stripUnpriced relays h with the unpriced member taken out of every
// explore submit: a worker from before the member, which ignores it and
// prices its shards.
func stripUnpriced(t *testing.T, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/explore" {
			var body map[string]json.RawMessage
			if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
				t.Error(err)
			}
			delete(body, "unpriced")
			data, err := json.Marshal(body)
			if err != nil {
				t.Error(err)
			}
			r.Body, r.ContentLength = io.NopCloser(bytes.NewReader(data)), int64(len(data))
		}
		h.ServeHTTP(w, r)
	})
}

// TestMixedFleetMerges: a fleet of one worker that prices its shards, as
// one from before the unpriced member does, one that answers them
// unpriced with a results document, as one from before
// serve.SchemaMeasured does, and one that answers with measurements
// merges to the local run: the old worker's prices are replaced and its
// out-of-grid baseline work subtracted.
func TestMixedFleetMerges(t *testing.T) {
	col := installCollector(t)
	newer := startWorker(t, serve.Options{Workers: 2, Collector: col})
	ls := serve.New(serve.Options{Workers: 2, Collector: col})
	var priced atomic.Int64 // shards the old worker answered priced
	older := httptest.NewServer(stripUnpriced(t, rewriteDone(t, ls.Handler(), func(res *dse.Results) {
		if res.Cost != nil {
			priced.Add(1)
		}
	})))
	ls2 := serve.New(serve.Options{Workers: 2, Collector: col})
	var unpriced atomic.Int64 // shards the schema-2 worker answered unpriced
	middle := httptest.NewServer(rewriteDone(t, ls2.Handler(), func(res *dse.Results) {
		if res.Cost == nil {
			unpriced.Add(1)
		}
	}))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = ls.Shutdown(ctx)
		_ = ls2.Shutdown(ctx)
		older.Close()
		middle.Close()
	})

	opts := fastOpts(older.URL, middle.URL, newer.URL)
	opts.Benchmarks = benchesByName("G", "F")
	opts.Sample = 24
	opts.Width = 32
	opts.hedgeAfter = -1
	got, err := Explore(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Explore(context.Background(), core.ExploreOptions{Benchmarks: benchesByName("G", "F"), Sample: 24, Width: 32})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := canonicalJSON(t, got), canonicalJSON(t, want); g != w {
		t.Errorf("a mixed fleet's merge diverges from the local run\ndistributed: %.400s\nlocal:       %.400s", g, w)
	}
	if n, units := priced.Load(), col.Counter("dist.shards").Value(); n == 0 || n >= units {
		t.Errorf("the old worker priced %d of %d shards, want some but not all", n, units)
	}
	// Every shard is answered once (no retries, no hedges): the two
	// older workers' through the fallback, the rest measured.
	fallbacks, units := col.Counter("dist.status_fallbacks").Value(), col.Counter("dist.shards").Value()
	if n := unpriced.Load(); n == 0 || fallbacks != priced.Load()+n || fallbacks >= units {
		t.Errorf("of %d shards the schema-2 worker answered %d unpriced, the old one %d priced, %d read through the fallback; want each worker some",
			units, n, priced.Load(), fallbacks)
	}
}

// BenchmarkShardStatus reads a finished one-kernel shard over the full
// space (762 machines) off its status: G of the shipped results, as a
// worker of serve.SchemaMeasured answers an unpriced shard, encoded as
// serve's status writer encodes it (TestStatusBytesUnchanged and
// TestMeasuredStatusBytes hold the writer to json.Encoder's bytes).
func BenchmarkShardStatus(b *testing.B) {
	full := dsetest.Shipped(b)
	shard := &dse.Results{
		Archs:   full.Archs,
		Benches: []string{"G"},
		Eval:    map[string][]dse.Evaluation{"G": full.Eval["G"]},
		Stats:   full.Stats,
	}
	m, err := serve.MeasurementOf(shard)
	if err != nil {
		b.Fatal(err)
	}
	doc, err := serve.AppendMeasurement(nil, m)
	if err != nil {
		b.Fatal(err)
	}
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(serve.JobStatus{ID: "j7", Kind: "explore", State: serve.StateDone, Result: doc}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(body.Len()))
	b.ReportAllocs()
	// Round 0 fills encoding/json's type cache, outside the count.
	for i := -1; i < b.N; i++ {
		if i == 0 {
			b.ResetTimer()
		}
		var st serve.JobStatus
		if err := json.Unmarshal(body.Bytes(), &st); err != nil || st.State != serve.StateDone {
			b.Fatalf("decoded %s: %v", st.State, err)
		}
		if m, err := readShard(st.Result, true); err != nil || len(m.Cells) != len(full.Archs) {
			b.Fatalf("read %v", err)
		}
	}
}
