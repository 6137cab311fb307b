package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

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
// served from the fleet tier — and writes the merged Chrome trace plus
// a Prometheus scrape as files: to $CFP_SMOKE_ARTIFACT_DIR when set
// (CI uploads them as build artifacts), else a test temp dir,
// validating both on the way out.
func TestFleetSmokeArtifacts(t *testing.T) {
	col := installCollector(t)
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
// live fleet exploration: scraping /metrics-style output (JSON,
// Prometheus and Chrome trace) while spans and counters are being
// recorded must be safe. Meaningful mainly under -race.
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
			_ = col.WriteMetrics(io.Discard)
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
