package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"customfit/internal/dse"
	"customfit/internal/dse/dsetest"
	"customfit/internal/evcache"
	"customfit/internal/obs"
)

// newTestServer spins up a Server (with a fresh globally installed obs
// collector, so counters are isolated per test) behind httptest.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server, *obs.Collector) {
	t.Helper()
	col := obs.NewCollector()
	obs.Install(col)
	t.Cleanup(func() { obs.Install(nil) })
	opts.Collector = col
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	})
	return s, ts, col
}

// postJSON posts body and decodes the response into out, returning the
// status code.
func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// getJob fetches a job's status.
func getJob(t *testing.T, base, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitTerminal polls a job until it reaches a terminal state.
func waitTerminal(t *testing.T, base, id string, deadline time.Duration) JobStatus {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		st := getJob(t, base, id)
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(stop) {
			t.Fatalf("job %s still %s after %v", id, st.State, deadline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestCompileSubmitPoll(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 1})
	var sub SubmitResponse
	code := postJSON(t, ts.URL+"/v1/compile",
		CompileRequest{Bench: "A", Arch: "2 1 64 1 4 1"}, &sub)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d, want 202", code)
	}
	if sub.ID == "" || sub.Coalesced {
		t.Fatalf("unexpected submit response %+v", sub)
	}
	st := waitTerminal(t, ts.URL, sub.ID, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", st.State, st.Error)
	}
	var res CompileResult
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Bundles <= 0 || res.Assembly == "" || res.Kernel == "" {
		t.Errorf("implausible compile result %+v", res)
	}
}

func TestSimulate(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 1})
	var sub SubmitResponse
	if code := postJSON(t, ts.URL+"/v1/simulate",
		SimulateRequest{Bench: "A", Arch: "2 1 64 1 4 1", Width: 48}, &sub); code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	st := waitTerminal(t, ts.URL, sub.ID, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}
	var res SimulateResult
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.Cycles <= 0 {
		t.Errorf("simulation not verified: %+v", res)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name string
		url  string
		body any
	}{
		{"unknown bench", "/v1/simulate", SimulateRequest{Bench: "nope", Arch: "2 1 64 1 4 1"}},
		{"simulate width", "/v1/simulate", SimulateRequest{Bench: "G", Arch: "2 1 64 1 4 1", Width: maxWidth + 1}},
		{"explore width", "/v1/explore", ExploreRequest{Benchmarks: []string{"G"}, Width: maxWidth + 1}},
		{"fit width", "/v1/fit", FitRequest{Benchmarks: []string{"G"}, CostCap: 8, Width: maxWidth + 1}},
		{"explore benchmark twice", "/v1/explore", ExploreRequest{Benchmarks: []string{"G", "G"}}},
		{"fit benchmark twice", "/v1/fit", FitRequest{Benchmarks: []string{"G", "G"}, CostCap: 8}},
		{"bad arch", "/v1/compile", CompileRequest{Bench: "A", Arch: "banana"}},
		{"no kernel", "/v1/compile", CompileRequest{Arch: "2 1 64 1 4 1"}},
		{"source does not compile", "/v1/compile", CompileRequest{Source: "kernel k(int o[]) { o[0] = x; }", Arch: "2 1 64 1 4 1"}},
		{"fit without cap", "/v1/fit", FitRequest{Benchmarks: []string{"A"}}},
		{"explore unknown bench", "/v1/explore", ExploreRequest{Benchmarks: []string{"ZZ"}}},
	}
	for _, c := range cases {
		var e ErrorResponse
		if code := postJSON(t, ts.URL+c.url, c.body, &e); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, code)
		} else if e.Error == "" {
			t.Errorf("%s: empty error body", c.name)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
		}
	}
}

// TestCompileDeepSourceRefused posts a megabyte of nested parentheses,
// under the submit bound, as a kernel: the frontend refuses it (a 400
// with the diagnostic) instead of recursing until the runtime kills the
// server, and the server goes on answering. The stack limit makes a
// regression fail fast instead of growing a goroutine's stack to a
// gigabyte first.
func TestCompileDeepSourceRefused(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	_, ts, _ := newTestServer(t, Options{Workers: 1})
	src := "kernel k(int n) { int x = " + strings.Repeat("(", 1048376) + "1; }"
	var e ErrorResponse
	if code := postJSON(t, ts.URL+"/v1/compile", CompileRequest{Source: src, Arch: "2 1 64 1 4 1"}, &e); code != http.StatusBadRequest {
		t.Fatalf("deep source: status %d, want 400", code)
	}
	if !strings.Contains(e.Error, "nesting") {
		t.Errorf("deep source: error %q, want the nesting diagnostic", e.Error)
	}
	var sub SubmitResponse
	if code := postJSON(t, ts.URL+"/v1/compile", CompileRequest{Bench: "G", Arch: "2 1 64 1 4 1"}, &sub); code != http.StatusAccepted {
		t.Fatalf("compile after the deep source: status %d, want 202", code)
	}
	if st := waitTerminal(t, ts.URL, sub.ID, 30*time.Second); st.State != StateDone {
		t.Fatalf("compile after the deep source finished %s (%s), want done", st.State, st.Error)
	}
}

// TestCompileHugeUnrollFails submits a compile whose unroll factor
// times the body size overflows an int: the job fails on the op budget
// instead of the compile allocating the wrapped-around size (or
// panicking on it) and taking the server down.
func TestCompileHugeUnrollFails(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 1})
	var sub SubmitResponse
	if code := postJSON(t, ts.URL+"/v1/compile",
		CompileRequest{Bench: "A", Arch: "2 1 64 1 4 1", Unroll: 1 << 62}, &sub); code != http.StatusAccepted {
		t.Fatalf("submit returned %d, want 202", code)
	}
	st := waitTerminal(t, ts.URL, sub.ID, 30*time.Second)
	if st.State != StateFailed || !strings.Contains(st.Error, "exceeds budget") {
		t.Fatalf("job finished %s (%s), want failed on the unroll budget", st.State, st.Error)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after the huge unroll: %d, want 200", resp.StatusCode)
	}
}

// TestCoalescing pins the coalescing contract: while an identical
// explore request is queued or running, submits return the same job id,
// and an identical request after completion answers from the warm
// evaluation cache (visible on the /metrics hit counter).
func TestCoalescing(t *testing.T) {
	cache, err := evcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	s, ts, _ := newTestServer(t, Options{Workers: 1, Cache: cache})

	// Park the single worker on a job we control, so the explores below
	// stay deterministically queued while we submit them.
	release := make(chan struct{})
	blocker, _, err := s.submit("block", "", obs.SpanContext{}, func(ctx context.Context, _ *Job) (json.RawMessage, error) {
		<-release
		return json.RawMessage(`{}`), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	req := ExploreRequest{Benchmarks: []string{"G"}, Sample: 97, Width: 32}
	var first, second, third SubmitResponse
	postJSON(t, ts.URL+"/v1/explore", req, &first)
	postJSON(t, ts.URL+"/v1/explore", req, &second)
	other := req
	other.Width = 24
	postJSON(t, ts.URL+"/v1/explore", other, &third)
	if first.Coalesced {
		t.Error("first submit reported coalesced")
	}
	if !second.Coalesced || second.ID != first.ID {
		t.Errorf("identical submit got %+v, want coalesced onto %s", second, first.ID)
	}
	if third.ID == first.ID {
		t.Error("different request coalesced onto the same job")
	}

	close(release)
	if st := waitTerminal(t, ts.URL, blocker.ID, 10*time.Second); st.State != StateDone {
		t.Fatalf("blocker finished %s", st.State)
	}
	st := waitTerminal(t, ts.URL, first.ID, 120*time.Second)
	if st.State != StateDone {
		t.Fatalf("explore finished %s (%s)", st.State, st.Error)
	}
	if _, err := dse.FromJSON(st.Result); err != nil {
		t.Fatalf("explore result is not a Results document: %v", err)
	}

	// Same request again, after completion: a fresh job, served from the
	// warm persistent cache.
	var fourth SubmitResponse
	postJSON(t, ts.URL+"/v1/explore", req, &fourth)
	if fourth.Coalesced || fourth.ID == first.ID {
		t.Errorf("post-completion submit got %+v, want a fresh job", fourth)
	}
	if st := waitTerminal(t, ts.URL, fourth.ID, 120*time.Second); st.State != StateDone {
		t.Fatalf("warm explore finished %s (%s)", st.State, st.Error)
	}

	m := fetchMetrics(t, ts.URL)
	if m["cfp_serve_jobs_coalesced_total"] != 1 {
		t.Errorf("cfp_serve_jobs_coalesced_total = %v, want 1", m["cfp_serve_jobs_coalesced_total"])
	}
	if m["cfp_evcache_hits_total"] == 0 {
		t.Error("warm re-explore recorded no evcache hits")
	}
}

// fetchMetrics scrapes /metrics, checks that the exposition lints, and
// returns its samples by series: "cfp_evcache_hits_total",
// `cfp_span_count_total{span="evaluate"}`.
func fetchMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.LintPrometheus(bytes.NewReader(data)); err != nil {
		t.Fatalf("/metrics does not lint: %v", err)
	}
	m := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			m[line[:i]] = v
		}
	}
	return m
}

// TestCancelMidExplore submits a long exploration, cancels it once it
// has made progress, and requires a prompt "cancelled" (never "failed")
// terminal state — the context-threading acceptance criterion.
func TestCancelMidExplore(t *testing.T) {
	_, ts, col := newTestServer(t, Options{Workers: 1})
	var sub SubmitResponse
	// Full 762-arch space on one benchmark: long enough to catch
	// mid-flight at any -race/-short setting.
	if code := postJSON(t, ts.URL+"/v1/explore",
		ExploreRequest{Benchmarks: []string{"DH"}, Width: 96}, &sub); code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	// Wait for real progress so the cancel lands mid-exploration.
	deadline := time.Now().Add(120 * time.Second)
	for {
		st := getJob(t, ts.URL, sub.ID)
		if st.State == StateRunning && st.Progress != nil {
			break
		}
		if st.State.Terminal() {
			t.Fatalf("job reached %s before it could be cancelled", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("no progress within deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	st := waitTerminal(t, ts.URL, sub.ID, 60*time.Second)
	if st.State != StateCancelled {
		t.Fatalf("cancelled job finished %s (%s), want cancelled", st.State, st.Error)
	}
	if took := time.Since(start); took > 30*time.Second {
		t.Errorf("cancellation took %v, want prompt", took)
	}
	if v := col.Counter("serve.jobs_cancelled").Value(); v != 1 {
		t.Errorf("serve.jobs_cancelled = %d, want 1", v)
	}
	if v := col.Counter("serve.jobs_failed").Value(); v != 0 {
		t.Errorf("serve.jobs_failed = %d after a cancellation, want 0", v)
	}

	// The server keeps serving after a cancel.
	var sub2 SubmitResponse
	postJSON(t, ts.URL+"/v1/compile", CompileRequest{Bench: "A", Arch: "2 1 64 1 4 1"}, &sub2)
	if st := waitTerminal(t, ts.URL, sub2.ID, 30*time.Second); st.State != StateDone {
		t.Errorf("post-cancel compile finished %s", st.State)
	}
}

func TestShutdownDrains(t *testing.T) {
	col := obs.NewCollector()
	obs.Install(col)
	defer obs.Install(nil)
	s := New(Options{Workers: 1, Collector: col})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var sub SubmitResponse
	postJSON(t, ts.URL+"/v1/compile", CompileRequest{Bench: "A", Arch: "2 1 64 1 4 1"}, &sub)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	if st := getJob(t, ts.URL, sub.ID); st.State != StateDone {
		t.Errorf("queued job not drained: %s (%s)", st.State, st.Error)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while drained: %d, want 503", resp.StatusCode)
	}
	var e ErrorResponse
	if code := postJSON(t, ts.URL+"/v1/compile",
		CompileRequest{Bench: "A", Arch: "2 1 64 1 4 1"}, &e); code != http.StatusServiceUnavailable {
		t.Errorf("submit while drained: %d, want 503", code)
	}
}

func TestHealthzOK(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Errorf("healthz %d %+v", resp.StatusCode, h)
	}
}

// TestGoldenExploreViaServer is the server-path equivalence acceptance
// test: an exploration of G, F and DH submitted over HTTP must answer
// bit-identically to those rows of the shipped results, which the
// library/CLI path pins (internal/dse) — cold cache and warm cache
// alike (timing-only Stats fields aside).
func TestGoldenExploreViaServer(t *testing.T) {
	if testing.Short() {
		t.Skip("explores the full 762-arch space")
	}
	if raceEnabled {
		t.Skip("full-space exploration is minutes-slow under the race detector")
	}
	cache, err := evcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	_, ts, _ := newTestServer(t, Options{Workers: 1, Cache: cache})

	want := dsetest.GFDH(t)
	req := ExploreRequest{Benchmarks: []string{"G", "F", "DH"}}

	var coldID string
	passes := []struct {
		pass     string
		wantHits bool
	}{{"cold", false}, {"warm", true}}
	for _, p := range passes {
		pass, wantHits := p.pass, p.wantHits
		var sub SubmitResponse
		if code := postJSON(t, ts.URL+"/v1/explore", req, &sub); code != http.StatusAccepted {
			t.Fatalf("%s: submit returned %d", pass, code)
		}
		if sub.ID == coldID {
			t.Fatalf("%s: coalesced with the finished cold job", pass)
		}
		coldID = sub.ID
		st := waitTerminal(t, ts.URL, sub.ID, 20*time.Minute)
		if st.State != StateDone {
			t.Fatalf("%s: explore finished %s (%s)", pass, st.State, st.Error)
		}
		got, err := dse.FromJSON(st.Result)
		if err != nil {
			t.Fatalf("%s: result is not a Results document: %v", pass, err)
		}
		if a, b := canonicalJSON(t, got), canonicalJSON(t, want); !bytes.Equal(a, b) {
			t.Errorf("%s: server results differ from golden (len %d vs %d)", pass, len(a), len(b))
		}
		if got.Stats.Runs != want.Stats.Runs {
			t.Errorf("%s: logical run count %d, golden %d", pass, got.Stats.Runs, want.Stats.Runs)
		}
		m := fetchMetrics(t, ts.URL)
		if wantHits && m["cfp_evcache_hits_total"] == 0 {
			t.Error("warm pass recorded no evcache hits")
		}
	}
}

// canonicalJSON strips the timing-dependent Stats fields and marshals,
// so two equivalent Results compare bit-identically.
func canonicalJSON(t *testing.T, r *dse.Results) []byte {
	t.Helper()
	c := *r
	c.Stats.WallTime = 0
	c.Stats.PerArch = 0
	c.Stats.PerRun = 0
	c.Stats.Phases = dse.PhaseTimes{}
	data, err := c.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestExploreExactArchs pins the shard-dispatch wire contract: an
// explicit archs grid is explored verbatim (no baseline appended), the
// out-of-grid baseline work is accounted in Stats.BaselineRuns, and
// archs+sample is rejected.
func TestExploreExactArchs(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 1})

	var e ErrorResponse
	if code := postJSON(t, ts.URL+"/v1/explore",
		ExploreRequest{Archs: []string{"2 1 64 1 4 1"}, Sample: 4}, &e); code != http.StatusBadRequest {
		t.Fatalf("archs+sample: status %d, want 400", code)
	}

	var sub SubmitResponse
	if code := postJSON(t, ts.URL+"/v1/explore", ExploreRequest{
		Benchmarks: []string{"G"},
		Width:      32,
		Archs:      []string{"2 1 64 1 4 1", "4 1 64 1 4 1"},
	}, &sub); code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	st := waitTerminal(t, ts.URL, sub.ID, 120*time.Second)
	if st.State != StateDone {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}
	res, err := dse.FromJSON(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Archs) != 2 {
		t.Fatalf("explored %d archs, want exactly the 2 given (no baseline appended)", len(res.Archs))
	}
	if res.Stats.BaselineRuns <= 0 {
		t.Errorf("Stats.BaselineRuns = %d, want > 0 for an out-of-grid baseline", res.Stats.BaselineRuns)
	}
	for i, ev := range res.Eval["G"] {
		if ev.Speedup <= 0 {
			t.Errorf("arch %d: speedup %g, want > 0 (baseline still measured)", i, ev.Speedup)
		}
	}
}

// TestExploreUnpriced pins what an unpriced explore is now: declared
// below SchemaMeasured it is refused with a 400 naming the schema it
// needs (there is no unpriced results document), and declared at
// SchemaMeasured it is answered with a measurement document, never a
// results document.
func TestExploreUnpriced(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 1})
	req := ExploreRequest{Benchmarks: []string{"G"}, Width: 32, Archs: []string{"2 1 64 1 4 1"}, Unpriced: true}
	for _, schema := range []int{0, SchemaOps} {
		req.Schema = schema
		var e ErrorResponse
		if code := postJSON(t, ts.URL+"/v1/explore", req, &e); code != http.StatusBadRequest || e.Error != "unpriced requires schema >= 3" {
			t.Errorf("unpriced at schema %d: %d %q, want 400 naming schema 3", schema, code, e.Error)
		}
	}

	req.Schema = SchemaMeasured
	var sub SubmitResponse
	if code := postJSON(t, ts.URL+"/v1/explore", req, &sub); code != http.StatusAccepted {
		t.Fatalf("unpriced at schema %d: status %d, want 202", SchemaMeasured, code)
	}
	st := waitTerminal(t, ts.URL, sub.ID, 60*time.Second)
	if st.State != StateDone {
		t.Fatalf("job %s finished %s (%s)", sub.ID, st.State, st.Error)
	}
	if bytes.Contains(st.Result, []byte(`"cost"`)) {
		t.Errorf("unpriced answer is a results document: %.200s", st.Result)
	}
	m, err := ReadMeasurement(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != 1 || m.Cells[0].Failed || m.Cells[0].Cycles <= 0 || m.Runs <= 0 {
		t.Errorf("measurement of one benchmark on one machine: %+v", m)
	}
}
