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

// misorder relays h with every explore submit asked priced — the
// unpriced member dropped — and the results document of every finished
// one answered with its evaluations for the right machines in the wrong
// order, or, for a one-machine shard, for another machine: a worker of
// this tree whose done body carries a results document, which merge
// would put in the wrong cells.
func misorder(t *testing.T, h http.Handler) http.Handler {
	edited := editDone(t, h, func(result []byte) []byte {
		res, err := dse.FromJSON(result)
		if err != nil {
			t.Error(err)
			return result
		}
		for _, evs := range res.Eval {
			slices.Reverse(evs)
			if len(evs) == 1 {
				evs[0].Arch.Regs *= 2
			}
		}
		if result, err = res.JSON(); err != nil {
			t.Error(err)
		}
		return result
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/explore" {
			var req serve.ExploreRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				t.Error(err)
			}
			req.Unpriced = false
			data, err := json.Marshal(req)
			if err != nil {
				t.Error(err)
			}
			r.Body, r.ContentLength = io.NopCloser(bytes.NewReader(data)), int64(len(data))
		}
		edited.ServeHTTP(w, r)
	})
}

// TestMisorderedShardIsRetried: a shard answered with a results
// document — its evaluations in another order, or for other machines —
// or with a measurement of one machine fewer, or of machines whose
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

// BenchmarkShardStatus reads a finished one-kernel shard over the full
// space (762 machines) off its status as the coordinator reads it
// (readPoll): G of the shipped results, as a worker answers an
// unpriced shard, encoded as serve's status writer encodes it
// (TestStatusBytesUnchanged and TestMeasuredStatusBytes hold the
// writer to json.Encoder's bytes). The
// status is read in place (serve.ReadMeasuredStatus) where it was once
// decoded by json.Unmarshal and its result read again, so the drop in
// this benchmark's trajectory row at that change is the change's, not
// the host's.
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
		st, m, err := readPoll(body.Bytes())
		if err != nil || st.State != serve.StateDone || m == nil || len(m.Cells) != len(full.Archs) {
			b.Fatalf("read %s, measured in place: %v, %v", st.State, m != nil, err)
		}
	}
}
