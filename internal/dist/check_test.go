package dist

import (
	"bytes"
	"context"
	"encoding/json"
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

// rewriteDone relays h, passing the result of every finished explore it
// answers through edit first: a worker that lies about its shards.
func rewriteDone(t *testing.T, h http.Handler, edit func(*dse.Results)) http.Handler {
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
		res, err := dse.FromJSON(st.Result)
		if err != nil {
			t.Error(err)
			return
		}
		edit(res)
		if st.Result, err = res.JSON(); err != nil {
			t.Error(err)
			return
		}
		_ = json.NewEncoder(w).Encode(st)
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
// in another order, or for other machines, fails its attempt like a dead
// worker: the shard is retried on the honest worker, the liar is taken
// out of rotation after its second strike, and the run merges == local.
func TestMisorderedShardIsRetried(t *testing.T) {
	col := installCollector(t)
	honest := startWorker(t, serve.Options{Workers: 2, Collector: col})
	ls := serve.New(serve.Options{Workers: 2, Collector: col})
	liar := httptest.NewServer(misorder(t, ls.Handler()))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = ls.Shutdown(ctx)
		liar.Close()
	})

	// The liar first, so dispatch hands it shards.
	opts := fastOpts(liar.URL, honest.URL)
	opts.Benchmarks = benchesByName("G")
	opts.Sample = 24
	opts.Width = 32
	opts.hedgeAfter = -1
	got, err := Explore(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Explore(context.Background(), core.ExploreOptions{Benchmarks: benchesByName("G"), Sample: 24, Width: 32})
	if err != nil {
		t.Fatal(err)
	}
	if canonicalJSON(t, got) != canonicalJSON(t, want) {
		t.Error("results after a misordered shard diverge from the local run")
	}
	if v := col.Counter("dist.retries").Value(); v < 2 {
		t.Errorf("dist.retries = %d, want the liar's shards retried", v)
	}
	if v := col.Counter("dist.worker_failures").Value(); v != 1 {
		t.Errorf("dist.worker_failures = %d, want the liar out of rotation", v)
	}
}

// TestCoordinatorPricesWhatItMerges: a worker that doubles every Time
// and Speedup it reports, and leaves the measurements alone, does not
// move the merged results. The coordinator prices the cells it merges
// itself, so only a shard's cycles, unroll factors, spills and failures
// reach them.
func TestCoordinatorPricesWhatItMerges(t *testing.T) {
	col := installCollector(t)
	ls := serve.New(serve.Options{Workers: 2, Collector: col})
	doubler := httptest.NewServer(rewriteDone(t, ls.Handler(), func(res *dse.Results) {
		for _, evs := range res.Eval {
			for i := range evs {
				evs[i].Time *= 2
				evs[i].Speedup *= 2
			}
		}
	}))
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
}

// BenchmarkShardStatus decodes the status of a finished one-kernel shard
// over the full space (762 machines): G of the shipped results, encoded
// as serve's status writer encodes it (TestStatusBytesUnchanged holds
// the writer to json.Encoder's bytes).
func BenchmarkShardStatus(b *testing.B) {
	full := dsetest.Shipped(b)
	shard := &dse.Results{
		Archs:   full.Archs,
		Benches: []string{"G"},
		Cost:    full.Cost,
		Eval:    map[string][]dse.Evaluation{"G": full.Eval["G"]},
		Stats:   full.Stats,
	}
	shard.Stats.Benchmarks, shard.Stats.DesignPoints = 1, len(full.Archs)
	doc, err := shard.JSON()
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
		st, res, err := decodeStatus(body.Bytes())
		if err != nil || st.State != serve.StateDone || res == nil || len(res.Eval["G"]) != len(full.Archs) {
			b.Fatalf("decoded %s, %v", st.State, err)
		}
	}
}
