package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"customfit/internal/obs"
)

// postJSONTraced is postJSON with a traceparent header attached.
func postJSONTraced(t *testing.T, url, traceparent string, body, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", traceparent)
	resp, err := http.DefaultClient.Do(req)
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

// TestTracedJobReturnsSpans pins the worker half of cross-process
// tracing: a compile submitted with a traceparent header finishes with
// its span subtree in the job status — a serve.job root carrying the
// caller's trace ID, with the pipeline phases underneath.
func TestTracedJobReturnsSpans(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 1})
	const traceHex = "4bf92f3577b34da6a3ce929d0e0e4736"
	tp := "00-" + traceHex + "-00f067aa0ba902b7-01"
	var sub SubmitResponse
	if code := postJSONTraced(t, ts.URL+"/v1/compile", tp,
		CompileRequest{Bench: "A", Arch: "2 1 64 1 4 1"}, &sub); code != http.StatusAccepted {
		t.Fatalf("submit returned %d, want 202", code)
	}
	st := waitTerminal(t, ts.URL, sub.ID, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", st.State, st.Error)
	}
	if len(st.Spans) == 0 {
		t.Fatal("traced job returned no spans")
	}
	var root *obs.WireSpan
	names := map[string]bool{}
	for i := range st.Spans {
		w := &st.Spans[i]
		names[w.Name] = true
		if w.TraceID != traceHex {
			t.Errorf("span %s has trace %s, want %s", w.Name, w.TraceID, traceHex)
		}
		if w.Name == "serve.job" {
			root = w
		}
	}
	if root == nil {
		t.Fatalf("no serve.job root in %v", names)
	}
	if root.Parent != "00f067aa0ba902b7" {
		t.Errorf("serve.job parent %s, want the caller's span ID", root.Parent)
	}
	for _, phase := range []string{"frontend", "compile"} {
		if !names[phase] {
			t.Errorf("traced compile missing %q span (got %v)", phase, names)
		}
	}
}

// TestUntracedJobReturnsNoSpans: without a traceparent, the job result
// must not carry spans (local work stays local).
func TestUntracedJobReturnsNoSpans(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 1})
	var sub SubmitResponse
	if code := postJSON(t, ts.URL+"/v1/compile",
		CompileRequest{Bench: "A", Arch: "2 1 64 1 4 1"}, &sub); code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	st := waitTerminal(t, ts.URL, sub.ID, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("job finished %s, want done", st.State)
	}
	if len(st.Spans) != 0 {
		t.Errorf("untraced job returned %d spans, want 0", len(st.Spans))
	}
}

// TestTraceParentHeaderOnExplore: an explore submit takes its trace
// from the traceparent header, as every submit does, and from nothing
// else — a "traceparent" member in the body is an unknown field, so
// that job runs untraced. The header is excluded from coalescing: two
// differently-traced identical requests share one job.
func TestTraceParentHeaderOnExplore(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 1})
	const traceHex = "0af7651916cd43dd8448eb211c80319c"
	req := ExploreRequest{Benchmarks: []string{"G"}, Sample: 12, Width: 32}
	var sub SubmitResponse
	if code := postJSONTraced(t, ts.URL+"/v1/explore", "00-"+traceHex+"-b7ad6b7169203331-01", req, &sub); code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	// An identical request with a different traceparent coalesces.
	var sub2 SubmitResponse
	if code := postJSONTraced(t, ts.URL+"/v1/explore", "00-ffffffffffffffffffffffffffffffff-b7ad6b7169203331-01", req, &sub2); code != http.StatusAccepted {
		t.Fatalf("second submit returned %d", code)
	}
	if sub2.ID != sub.ID || !sub2.Coalesced {
		t.Errorf("differently-traced identical explores did not coalesce: %+v vs %+v", sub, sub2)
	}
	st := waitTerminal(t, ts.URL, sub.ID, 60*time.Second)
	if st.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", st.State, st.Error)
	}
	if len(st.Spans) == 0 {
		t.Fatal("header-traced explore returned no spans")
	}
	names := map[string]bool{}
	for _, w := range st.Spans {
		names[w.Name] = true
		if w.TraceID != traceHex {
			t.Errorf("span %s trace %s, want %s (first submitter wins)", w.Name, w.TraceID, traceHex)
		}
	}
	for _, phase := range []string{"serve.job", "dse.explore", "evaluate"} {
		if !names[phase] {
			t.Errorf("traced explore missing %q span (got %v)", phase, names)
		}
	}

	var sub3 SubmitResponse
	body := map[string]any{"benchmarks": []string{"G"}, "sample": 24, "width": 32,
		"traceparent": "00-" + traceHex + "-b7ad6b7169203331-01"}
	if code := postJSON(t, ts.URL+"/v1/explore", body, &sub3); code != http.StatusAccepted {
		t.Fatalf("body-field submit returned %d", code)
	}
	if st := waitTerminal(t, ts.URL, sub3.ID, 60*time.Second); st.State != StateDone || len(st.Spans) != 0 {
		t.Errorf("body-field explore finished %s with %d spans, want done and untraced", st.State, len(st.Spans))
	}
}

// TestSpanLimitTruncates: a tiny SpanLimit drops overflow and counts it.
func TestSpanLimitTruncates(t *testing.T) {
	_, ts, col := newTestServer(t, Options{Workers: 1, SpanLimit: 2})
	tp := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	var sub SubmitResponse
	if code := postJSONTraced(t, ts.URL+"/v1/compile", tp,
		CompileRequest{Bench: "A", Arch: "2 1 64 1 4 1"}, &sub); code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	st := waitTerminal(t, ts.URL, sub.ID, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("job finished %s, want done", st.State)
	}
	if len(st.Spans) != 2 {
		t.Errorf("got %d spans, want SpanLimit=2", len(st.Spans))
	}
	_ = col // dropped-span counter lives on the collector's exposition
	if n := fetchMetrics(t, ts.URL)["cfp_serve_spans_dropped_total"]; n <= 0 {
		t.Errorf("cfp_serve_spans_dropped_total = %v, want > 0", n)
	}
}

// TestHealthzReportsLoad: queue depth and in-flight count are live.
func TestHealthzReportsLoad(t *testing.T) {
	s, ts, _ := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	release := make(chan struct{})
	blocked, _, err := s.submit("block", "", obs.SpanContext{}, func(ctx context.Context, _ *Job) (json.RawMessage, error) {
		<-release
		return json.RawMessage(`{}`), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	queued, _, err := s.submit("block2", "", obs.SpanContext{}, func(ctx context.Context, _ *Job) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first job to be running.
	deadline := time.Now().Add(10 * time.Second)
	for {
		h := fetchHealth(t, ts.URL)
		if h.Running == 1 && h.Queued >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never showed running=1 queued>=1: %+v", h)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(release)
	waitTerminal(t, ts.URL, blocked.ID, 10*time.Second)
	waitTerminal(t, ts.URL, queued.ID, 10*time.Second)
	h := fetchHealth(t, ts.URL)
	if h.Running != 0 || h.Queued != 0 {
		t.Errorf("idle healthz %+v, want running=0 queued=0", h)
	}
}

func fetchHealth(t *testing.T, base string) HealthResponse {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestMetricsExposition: /metrics answers the Prometheus text
// exposition whatever the Accept header says, with the live queue and
// job gauges, and the text lints.
func TestMetricsExposition(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 1})
	var sub SubmitResponse
	postJSON(t, ts.URL+"/v1/compile", CompileRequest{Bench: "A", Arch: "2 1 64 1 4 1"}, &sub)
	waitTerminal(t, ts.URL, sub.ID, 30*time.Second)

	for _, accept := range []string{"", "application/json"} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
			t.Errorf("Accept %q: content type %q, want %q", accept, ct, obs.PrometheusContentType)
		}
		out := buf.String()
		if err := obs.LintPrometheus(strings.NewReader(out)); err != nil {
			t.Fatalf("Accept %q: /metrics does not lint: %v\n%s", accept, err, out)
		}
		for _, want := range []string{
			"cfp_serve_queue_depth",
			"cfp_serve_active_workers",
			"cfp_serve_uptime_seconds",
			"cfp_serve_jobs_state_done",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("Accept %q: /metrics missing %q", accept, want)
			}
		}
	}
}
