package main

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"customfit/internal/bench"
)

// Same seed, same inputs; another seed, other inputs.
func TestInputsFollowTheSeed(t *testing.T) {
	draw := func(seed int64) (any, any) {
		kernels, archs := warmGrid(config{Seed: seed, Scale: 1})
		reqs := requestStream(rand.New(rand.NewSource(seed)), bench.All(), paperMachines())
		return []any{kernels, archs}, reqs
	}
	grid1, reqs1 := draw(7)
	grid2, reqs2 := draw(7)
	grid3, reqs3 := draw(8)
	if !reflect.DeepEqual(grid1, grid2) || !reflect.DeepEqual(reqs1, reqs2) {
		t.Error("the same seed generated different inputs")
	}
	if reflect.DeepEqual(grid1, grid3) || reflect.DeepEqual(reqs1, reqs3) {
		t.Error("different seeds generated the same inputs")
	}
}

// Every seed simulates the same set of programs, in another order.
func TestRequestStreamIsAPermutation(t *testing.T) {
	count := func(seed int64) map[simRequest]int {
		m := map[simRequest]int{}
		for _, r := range requestStream(rand.New(rand.NewSource(seed)), bench.All(), paperMachines()) {
			m[r]++
		}
		return m
	}
	if a, b := count(1), count(2); !reflect.DeepEqual(a, b) || len(a) != 11*13 {
		t.Errorf("seeds 1 and 2 hold different request sets (%d and %d distinct)", len(a), len(b))
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{2, 50}, {19, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := percentile(v, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (ten samples beyond it)", got)
	}
}

// The mean of the fastest quarter, of at least two samples.
func TestSteady(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 1.5},
		{[]float64{8, 7, 6, 5, 4, 3, 2, 1}, 1.5},
		{[]float64{12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2},
	} {
		if got := steady(c.v); got != c.want {
			t.Errorf("steady(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
func TestQuartilesFollowPython(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got := spread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// A hand-built tree: a root of 100 with children [10,30] and [20,50]
// (overlapping, so they cover [10,50]) and a grandchild [25,35] under the
// second child.
func TestSelfTimeArithmetic(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Name: "root", Start: at(0), End: at(100), Parent: -1},
		{Name: "a", Start: at(10), End: at(30), Parent: 0},
		{Name: "b", Start: at(20), End: at(50), Parent: 0},
		{Name: "c", Start: at(25), End: at(35), Parent: 2},
	}
	want := []time.Duration{60, 20, 20, 10}
	for i, got := range selfTimes(spans) {
		if got != want[i]*time.Millisecond {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got, want[i]*time.Millisecond)
		}
	}
	rows, unattributed := budget(spans, "root")
	if unattributed != 0.6 {
		t.Errorf("unattributed share = %v, want 0.6", unattributed)
	}
	if len(rows) != 3 || rows[0].Share != 0.2 {
		t.Errorf("budget rows = %+v", rows)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"same", steady, steady, false, "ok"},
		{"slower by a fifth", steady, []float64{120, 121, 119, 120, 120}, false, "regressed"},
		{"a fifth more, higher is better", steady, []float64{120, 121, 119, 120, 120}, true, "ok"},
		{"noisy", steady, []float64{70, 130, 100, 60, 140}, false, "unresolved"},
		{"noisy but every run better", []float64{200, 260, 300, 240, 330}, steady, false, "ok"},
	} {
		if got := verdict(c.a, c.b, c.higher, 0.1); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// A quality metric is compared for equality: its bound is the smallest
// the contract allows.
func TestVerdictExact(t *testing.T) {
	same := []float64{2.5, 2.5, 2.5}
	if got := verdict(same, same, true, 1e-9); got != "ok" {
		t.Errorf("identical values: %s, want ok", got)
	}
	if got := verdict(same, []float64{2.4999, 2.4999, 2.4999}, true, 1e-9); got != "regressed" {
		t.Errorf("a loss of 0.004%%: %s, want regressed", got)
	}
}

// Failed ops, and a workload or metric one side lacks, are regressions.
func TestCompareRuns(t *testing.T) {
	var decl declared
	if err := json.Unmarshal([]byte(`{"end_to_end": [{"name": "op_p50_ms", "better": "lower", "bound": 0.1}]}`), &decl); err != nil {
		t.Fatal(err)
	}
	run := func(workload string, failed int, metrics map[string]metric) runRecord {
		return runRecord{Workload: workload, Attempted: 100, Failed: failed, Metrics: metrics}
	}
	p50 := map[string]metric{"op_p50_ms": {Value: 10, Unit: "ms"}}
	good := []runRecord{run("hit", 0, p50), run("miss", 0, p50)}
	for _, c := range []struct {
		name string
		a, b []runRecord
		want int
	}{
		{"same", good, good, 0},
		{"B fails ops", good, []runRecord{run("hit", 3, p50), run("miss", 0, p50)}, 1},
		{"A failed as many", []runRecord{run("hit", 3, p50)}, []runRecord{run("hit", 3, p50)}, 0},
		{"B lacks a workload", good, good[:1], 1},
		{"B lacks a metric", good, []runRecord{run("hit", 0, nil), run("miss", 0, p50)}, 1},
		{"no untraced run", nil, nil, 1},
	} {
		if got := compareRuns(io.Discard, decl, c.a, c.b); got != c.want {
			t.Errorf("%s: status %d, want %d", c.name, got, c.want)
		}
	}
}

// A pass of every workload at a twentieth of its size, untraced and
// traced: every run is correct and emits exactly the metrics
// BENCHMARK.json declares.
func TestSmokeEmitsTheDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	// The driver's time allows four workloads at this run length; the
	// other two run by name. Every declared one exists, reason and all.
	for _, d := range decl.Workloads {
		if w := workloadByName(d.Name); w == nil {
			t.Errorf("BENCHMARK.json declares %s, the benchmark has no such workload", d.Name)
		} else if w.Why != d.Why {
			t.Errorf("%s: BENCHMARK.json says %q, the benchmark %q", d.Name, d.Why, w.Why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for i, w := range workloads {
		// Side by side: the numbers of a smoke pass mean nothing, only its
		// metric names and its checks do.
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, trace := range []bool{false, true} {
				cfg := config{Seed: 3, Seconds: 0.05, Trace: trace, Scale: 20, TmpDir: t.TempDir(), TraceDir: t.TempDir()}
				rec, err := runWorkload(&workloads[i], cfg)
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if rec.Failed != 0 || rec.Attempted < 1 {
					t.Errorf("trace=%v: %d of %d ops failed: %v", trace, rec.Failed, rec.Attempted, rec.Errors)
				}
				want := decl.EndToEnd
				if trace {
					want = decl.PerLayer
				}
				if len(rec.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics emitted, %d declared", trace, len(rec.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rec.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("trace=%v: %s is declared but was not emitted", trace, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s has unit %s, declared %s", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("trace=%v: %s = %v", trace, m.Name, got.Value)
					case !name.MatchString(m.Name):
						t.Errorf("metric name %q is outside the contract", m.Name)
					}
				}
			}
		})
	}
}
