package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"customfit/internal/evcache"
	"customfit/internal/obs"
	"customfit/internal/serve"
)

// chromeTrace mirrors obs's Chrome trace JSON for assertions.
type chromeTrace struct {
	TraceEvents []struct {
		Name   string `json:"name"`
		Trace  string `json:"trace_id"`
		Span   string `json:"span_id"`
		Parent string `json:"parent_id"`
	} `json:"traceEvents"`
}

// exploreFleetTraced runs a small sampled exploration over an
// in-process two-worker fleet sharing one collector, and returns the
// collector holding the merged trace.
func exploreFleetTraced(t *testing.T) *obs.Collector {
	t.Helper()
	col := installCollector(t)
	w1 := startWorker(t, serve.Options{Workers: 2, Collector: col})
	w2 := startWorker(t, serve.Options{Workers: 2, Collector: col})

	opts := fastOpts(w1.URL, w2.URL)
	opts.Benchmarks = benchesByName("G")
	opts.Sample = 24
	opts.Width = 32
	if _, err := Explore(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	return col
}

// TestShardTraceRidesTheHeader: a traced coordinator sends a shard's
// dist.shard context as its submit's traceparent header and nowhere
// else; an untraced one sends no header. The body holds the same
// members either way.
func TestShardTraceRidesTheHeader(t *testing.T) {
	for _, traced := range []bool{true, false} {
		var col *obs.Collector
		if traced {
			col = installCollector(t)
		} else {
			obs.Install(nil)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		var mu sync.Mutex
		var header string
		var body map[string]json.RawMessage
		fake := newFakeWorker(1)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/explore" {
				mu.Lock()
				if body == nil {
					header = r.Header.Get("traceparent")
					if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
						t.Error(err)
					}
					cancel() // one submit is all this test reads
				}
				mu.Unlock()
			}
			fake.ServeHTTP(w, r)
		}))
		opts := fastOpts(ts.URL)
		opts.Benchmarks = benchesByName("G")
		opts.Sample = 64
		opts.Width = 32
		_, err := Explore(ctx, opts)
		cancel()
		ts.Close()
		if err == nil {
			t.Fatal("Explore against a worker that never finishes returned no error")
		}

		mu.Lock()
		var keys []string
		for k := range body {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		if !slices.Equal(keys, []string{"archs", "benchmarks", "unpriced", "width"}) {
			t.Errorf("traced=%v: submit body members %v, want archs, benchmarks, unpriced, width", traced, keys)
		}
		if !traced {
			if header != "" {
				t.Errorf("untraced coordinator sent traceparent %q", header)
			}
			mu.Unlock()
			continue
		}
		sc, ok := obs.ParseTraceParent(header)
		mu.Unlock()
		if !ok {
			t.Fatalf("traced submit's traceparent header %q does not parse", header)
		}
		shard := false
		for _, e := range col.Events() {
			shard = shard || e.Name == "dist.shard" && e.ID == sc.Span && e.Trace == sc.Trace
		}
		if !shard {
			t.Errorf("traceparent %q names no dist.shard span of the run", header)
		}
	}
}

// TestMergedTraceOneFleetOneTrace is the tentpole acceptance test:
// distributed exploration over a fleet must produce ONE merged Chrome
// trace — worker-side compile/sched/sim spans re-parented under the
// coordinator's dist.shard spans, all sharing the coordinator's trace
// ID.
func TestMergedTraceOneFleetOneTrace(t *testing.T) {
	col := exploreFleetTraced(t)

	var buf bytes.Buffer
	if err := col.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}

	// One fleet, one trace: every span shares the coordinator's ID.
	traces := map[string]int{}
	byID := map[string]int{} // span_id -> index
	names := map[string]int{}
	for i, e := range tr.TraceEvents {
		if e.Trace == "" || e.Span == "" {
			t.Fatalf("event %q missing identity: %+v", e.Name, e)
		}
		traces[e.Trace]++
		byID[e.Span] = i
		names[e.Name]++
	}
	if len(traces) != 1 {
		t.Fatalf("merged trace holds %d distinct trace IDs, want 1: %v (names %v)", len(traces), traces, names)
	}

	if names["dist.explore"] != 1 {
		t.Errorf("dist.explore roots = %d, want 1", names["dist.explore"])
	}
	if names["dist.shard"] < 2 {
		t.Errorf("dist.shard spans = %d, want >= 2 (two workers)", names["dist.shard"])
	}
	// Worker-side pipeline phases made it across the wire. The backend's
	// span is sched.delta: the default compile path, spill rounds included.
	for _, phase := range []string{"serve.job", "dse.explore", "evaluate", "sched.delta", "sim.reference"} {
		if names[phase] == 0 {
			t.Errorf("merged trace missing worker-side %q spans (got %v)", phase, names)
		}
	}

	// Parent chains from worker-side work must reach a dist.shard and
	// then the dist.explore root without leaving the trace.
	reaches := func(from int, target string) bool {
		for hops := 0; hops < 64; hops++ {
			e := tr.TraceEvents[from]
			if e.Name == target {
				return true
			}
			if e.Parent == "" {
				return false
			}
			next, ok := byID[e.Parent]
			if !ok {
				return false
			}
			from = next
		}
		return false
	}
	checked := 0
	for i, e := range tr.TraceEvents {
		if e.Name != "evaluate" && e.Name != "sched.delta" && e.Name != "sim.reference" {
			continue
		}
		checked++
		if !reaches(i, "dist.shard") {
			t.Fatalf("%s span %s does not chain up to a dist.shard", e.Name, e.Span)
		}
		if !reaches(i, "dist.explore") {
			t.Fatalf("%s span %s does not chain up to the dist.explore root", e.Name, e.Span)
		}
	}
	if checked == 0 {
		t.Fatal("no worker-side phase spans to check")
	}
}

// TestFleetSmokeArtifacts drives an in-process fleet sharing a cache
// hub — a cold pass, then a warm pass on a fresh worker that must be
// served from the fleet tier — and writes the merged Chrome trace, a
// Prometheus scrape and the JSON log lines as files: to
// $CFP_SMOKE_ARTIFACT_DIR when set (CI uploads them as build
// artifacts), else a test temp dir, validating all three on the way
// out. The log must join to the trace (docs/OBSERVABILITY.md,
// "Correlated logging"): each pass's starting line and every shard
// job's finished line carry that pass's dist.explore trace ID.
func TestFleetSmokeArtifacts(t *testing.T) {
	col := installCollector(t)
	logs := &syncBuffer{}
	obs.SetLogger(slog.New(slog.NewJSONHandler(logs, &slog.HandlerOptions{Level: slog.LevelDebug})))
	t.Cleanup(func() { obs.SetLogger(nil) })
	hubCache, err := evcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hubCache.Close() })
	hub := startWorker(t, serve.Options{Workers: 1, Collector: col, Cache: hubCache})
	wA, cA := fleetWorker(t, hub.URL, col)

	opts := fastOpts(wA.URL)
	opts.Benchmarks = benchesByName("G")
	opts.Sample = 24
	opts.Width = 32
	if _, err := Explore(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	cA.SyncRemote()
	passes := []obs.TraceID{exploreTrace(t, col, nil)}

	// Warm pass on a worker that has never computed anything: its only
	// source is the fleet tier, so the scrape must show net-cache hits.
	wB, _ := fleetWorker(t, hub.URL, col)
	warm := fastOpts(wB.URL)
	warm.Benchmarks = benchesByName("G")
	warm.Sample = 24
	warm.Width = 32
	if _, err := Explore(context.Background(), warm); err != nil {
		t.Fatal(err)
	}
	passes = append(passes, exploreTrace(t, col, passes))

	dir := os.Getenv("CFP_SMOKE_ARTIFACT_DIR")
	if dir == "" {
		dir = t.TempDir()
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}

	tracePath := filepath.Join(dir, "fleet-trace.json")
	if err := col.WriteTraceFile(tracePath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("artifact trace not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Error("artifact trace is empty")
	}

	promPath := filepath.Join(dir, "fleet-metrics.prom")
	f, err := os.Create(promPath)
	if err != nil {
		t.Fatal(err)
	}
	werr := col.WritePrometheus(f)
	cerr := f.Close()
	if werr != nil || cerr != nil {
		t.Fatalf("writing prometheus artifact: %v / %v", werr, cerr)
	}
	pd, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.LintPrometheus(bytes.NewReader(pd)); err != nil {
		t.Fatalf("prometheus artifact does not lint: %v", err)
	}
	if !strings.Contains(string(pd), "cfp_dist_shards_total") {
		t.Errorf("prometheus artifact missing cfp_dist_shards_total:\n%.400s", pd)
	}
	if hits := promValue(t, string(pd), "cfp_evcache_net_hits_total"); hits <= 0 {
		t.Errorf("cfp_evcache_net_hits_total = %g after the warm-fleet pass, want > 0", hits)
	}

	// A worker logs "job finished" after the status the coordinator
	// reads says done, so wait for each pass's lines before the file is
	// written.
	for i, trace := range passes {
		deadline := time.Now().Add(10 * time.Second)
		for !checkPassLog(logs.lines(), trace.String(), nil) && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		checkPassLog(logs.lines(), trace.String(), func(format string, args ...any) {
			t.Errorf("pass %d: "+format, append([]any{i + 1}, args...)...)
		})
	}
	logPath := filepath.Join(dir, "fleet-log.jsonl")
	if err := os.WriteFile(logPath, logs.bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// exploreTrace returns the trace ID of the one dist.explore span in
// col's events whose trace is not among seen.
func exploreTrace(t *testing.T, col *obs.Collector, seen []obs.TraceID) obs.TraceID {
	t.Helper()
	var found []obs.TraceID
	for _, e := range col.Events() {
		if e.Name == "dist.explore" && !slices.Contains(seen, e.Trace) {
			found = append(found, e.Trace)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%d new dist.explore spans, want 1", len(found))
	}
	return found[0]
}

// checkPassLog reports whether lines hold one exploration's log under
// trace: exactly one "distributed exploration starting" line, and a
// "job finished" line with state=done for each of its shards, each
// with its keys in the order the log has always written them. Lines of
// other traces are ignored, since other tests share the process
// logger. With report non-nil, each way the log falls short is
// reported through it.
func checkPassLog(lines []logLine, trace string, report func(format string, args ...any)) bool {
	if report == nil {
		report = func(string, ...any) {}
	}
	keyOrder := map[string][]string{
		"distributed exploration starting": {"time", "level", "msg", "workers", "shards", "archs", "trace"},
		"job finished":                     {"time", "level", "msg", "job", "kind", "state", "dur", "trace"},
	}
	var starts, done int
	shards := -1
	ok := true
	for _, l := range lines {
		msg, _ := l.rec["msg"].(string)
		if l.rec["trace"] != trace || keyOrder[msg] == nil {
			continue
		}
		if !slices.Equal(l.keys, keyOrder[msg]) {
			report("%q line has keys %v, want %v", msg, l.keys, keyOrder[msg])
			ok = false
		}
		if msg == "distributed exploration starting" {
			starts++
			if n, isNum := l.rec["shards"].(float64); isNum {
				shards = int(n)
			}
			continue
		}
		if l.rec["state"] != "done" || l.rec["kind"] != "explore" {
			report("job finished line %v, want kind=explore state=done", l.rec)
			ok = false
		}
		done++
	}
	if starts != 1 {
		report("%d \"distributed exploration starting\" lines with trace %s, want 1", starts, trace)
		return false
	}
	if shards < 1 || done != shards {
		report("%d \"job finished\" lines with trace %s, want one per shard (%d)", done, trace, shards)
		return false
	}
	return ok
}

// logLine is one JSON log line: its members, and their keys in the
// order the line wrote them.
type logLine struct {
	rec  map[string]any
	keys []string
}

// syncBuffer is an io.Writer the process logger may write from any
// goroutine while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return slices.Clone(b.buf.Bytes())
}

// lines decodes the buffer as JSON lines; a line that does not decode
// as one object is dropped, which no check can mistake for a match.
func (b *syncBuffer) lines() []logLine {
	var out []logLine
	for _, line := range bytes.Split(b.bytes(), []byte("\n")) {
		var l logLine
		if json.Unmarshal(line, &l.rec) != nil {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		_, _ = dec.Token() // the opening brace
		for dec.More() {
			key, _ := dec.Token()
			l.keys = append(l.keys, key.(string))
			var skip json.RawMessage
			_ = dec.Decode(&skip)
		}
		out = append(out, l)
	}
	return out
}

// promValue extracts a sample value from a Prometheus exposition dump.
func promValue(t *testing.T, scrape, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(scrape, "\n") {
		if !strings.HasPrefix(line, name+" ") && !strings.HasPrefix(line, name+"{") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("metric %s not in scrape:\n%.400s", name, scrape)
	return 0
}

// TestConcurrentExportDuringExploration races the exporters against a
// live fleet exploration: writing the /metrics exposition and the
// Chrome trace while spans and counters are being recorded must be
// safe. Meaningful mainly under -race.
func TestConcurrentExportDuringExploration(t *testing.T) {
	col := installCollector(t)
	w1 := startWorker(t, serve.Options{Workers: 2, Collector: col})
	w2 := startWorker(t, serve.Options{Workers: 2, Collector: col})

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = col.WritePrometheus(io.Discard)
			_ = col.WriteTrace(io.Discard)
		}
	}()

	opts := fastOpts(w1.URL, w2.URL)
	opts.Benchmarks = benchesByName("G")
	opts.Sample = 24
	opts.Width = 32
	_, err := Explore(context.Background(), opts)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
}
