package dse

import (
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/machine"
	"customfit/internal/obs"
)

// smallSpace is a fast, representative subspace for tests.
var smallSpace = []machine.Arch{
	machine.Baseline,
	{ALUs: 2, MULs: 1, Regs: 64, L2Ports: 1, L2Lat: 4, Clusters: 1},
	{ALUs: 4, MULs: 2, Regs: 256, L2Ports: 1, L2Lat: 4, Clusters: 4},
	{ALUs: 8, MULs: 2, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 4},
	{ALUs: 8, MULs: 2, Regs: 256, L2Ports: 1, L2Lat: 4, Clusters: 1},
	{ALUs: 8, MULs: 4, Regs: 256, L2Ports: 2, L2Lat: 2, Clusters: 2},
	{ALUs: 16, MULs: 4, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 8},
	{ALUs: 16, MULs: 8, Regs: 512, L2Ports: 1, L2Lat: 4, Clusters: 4},
}

func smallExplorer(benches ...string) *Explorer {
	e := NewExplorer()
	e.Archs = smallSpace
	e.Width = 48
	if len(benches) > 0 {
		e.Benchmarks = nil
		for _, n := range benches {
			e.Benchmarks = append(e.Benchmarks, bench.ByName(n))
		}
	}
	return e
}

func TestExplorerSmallSpace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a miniature exploration")
	}
	e := smallExplorer("A", "D", "G", "H")
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.Benches {
		for i, ev := range res.Eval[b] {
			if ev.Failed {
				t.Errorf("%s on %s failed", b, res.Archs[i])
				continue
			}
			if ev.Speedup <= 0 {
				t.Errorf("%s on %s: speedup %f", b, res.Archs[i], ev.Speedup)
			}
		}
		// The baseline must have speedup exactly 1.
		if su := res.Eval[b][0].Speedup; math.Abs(su-1) > 1e-9 {
			t.Errorf("%s baseline speedup = %f, want 1", b, su)
		}
	}
	// A richer machine should beat the baseline on every benchmark.
	richIdx := 5 // (8 4 256 2 2 2)
	for _, b := range res.Benches {
		if su := res.Eval[b][richIdx].Speedup; su <= 1 {
			t.Errorf("%s on rich machine: speedup %f, want > 1", b, su)
		}
	}
	if res.Stats.Runs < int64(len(res.Benches)*len(res.Archs)) {
		t.Errorf("compilation count %d implausibly low", res.Stats.Runs)
	}
}

// TestRepeatedBenchmarkRefused: a benchmark named twice would give both
// rows one Results row, which two workers then fill cell by cell at once
// (a data race under -race); the explorer refuses it before any work.
func TestRepeatedBenchmarkRefused(t *testing.T) {
	e := smallExplorer("G", "G")
	e.Archs = machine.FullSpace()[:40]
	res, err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "G given twice") {
		t.Fatalf("Run = %v, %v; want the repeated benchmark refused", res != nil, err)
	}
}

func TestUnrollSweepStopsAtSpill(t *testing.T) {
	ev := NewEvaluator()
	ev.Width = 48
	// The register-starved machine must stop unrolling early on the
	// register-hungry FIR, while the 512-register machine unrolls on.
	starved := machine.Arch{ALUs: 16, MULs: 4, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 8}
	rich := machine.Arch{ALUs: 16, MULs: 8, Regs: 512, L2Ports: 4, L2Lat: 2, Clusters: 4}
	a := bench.ByName("A")
	es := ev.Evaluate(a, starved)
	er := ev.Evaluate(a, rich)
	if es.Failed || er.Failed {
		t.Fatalf("evaluation failed: starved=%v rich=%v", es.Failed, er.Failed)
	}
	if es.Unroll > er.Unroll {
		t.Errorf("starved machine unrolled %d > rich machine %d", es.Unroll, er.Unroll)
	}
	if er.Time >= es.Time {
		t.Errorf("rich machine slower (%f) than starved (%f) on A", er.Time, es.Time)
	}
}

func TestScatterFrontier(t *testing.T) {
	e := smallExplorer("G")
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Scatter("G")
	if len(pts) == 0 {
		t.Fatal("no scatter points")
	}
	// Frontier must be strictly increasing in speedup along cost.
	lastSu := 0.0
	for _, p := range pts {
		if p.Best {
			if p.Speedup <= lastSu {
				t.Errorf("frontier not increasing at cost %.2f", p.Cost)
			}
			lastSu = p.Speedup
		}
	}
	// Each design point appears at most once.
	seen := map[[5]int]bool{}
	for _, p := range pts {
		k := [5]int{p.Arch.ALUs, p.Arch.MULs, p.Arch.Regs, p.Arch.L2Ports, p.Arch.L2Lat}
		if seen[k] {
			t.Errorf("design point %v appears twice", k)
		}
		seen[k] = true
	}
}

// TestScatterDeterministic: the shipped results hold design points that
// tie on (cost, speedup) — F has 78 of them — and every reading of a
// scatter must name the same machine for each, the first in Archs.
func TestScatterDeterministic(t *testing.T) {
	res, err := Load(shippedPath)
	if err != nil {
		t.Fatal(err)
	}
	index := map[machine.Arch]int{}
	for i, a := range res.Archs {
		index[a] = i
	}
	ties := 0
	for _, b := range res.Benches {
		first := res.Scatter(b)
		for n := 1; n < len(first); n++ {
			p, q := first[n-1], first[n]
			if p.Cost == q.Cost && p.Speedup == q.Speedup {
				ties++
				if index[p.Arch] > index[q.Arch] {
					t.Errorf("%s: tied %v comes before %v, which is earlier in Archs", b, p.Arch, q.Arch)
				}
			}
		}
		for range 20 {
			if again := res.Scatter(b); !slices.Equal(again, first) {
				t.Fatalf("%s: two calls to Scatter return different points", b)
			}
		}
	}
	if ties == 0 {
		t.Error("no tied design points: the test no longer exercises the tie order")
	}
}

func TestSelectConstrainedRangeSemantics(t *testing.T) {
	e := smallExplorer("A", "D", "G", "H")
	// Restrict displayed benches to the evaluated subset for this test.
	old := DisplayBenches
	DisplayBenches = []string{"A", "D", "G", "H"}
	defer func() { DisplayBenches = old }()

	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	cap := 10.0
	zero := res.SelectConstrained(cap, 0)
	ten := res.SelectConstrained(cap, 0.10)
	inf := res.SelectConstrained(cap, math.Inf(1))
	if len(zero) != 4 || len(ten) != 4 || len(inf) != 4 {
		t.Fatalf("row counts: %d %d %d, want 4 each", len(zero), len(ten), len(inf))
	}
	for i := range zero {
		if zero[i].Cost > cap {
			t.Errorf("%s: cost %f exceeds cap", zero[i].Target, zero[i].Cost)
		}
		// Range=0 maximizes own speedup; Range=10%% may give some up.
		if ten[i].OwnSpeedup > zero[i].OwnSpeedup+1e-9 {
			t.Errorf("%s: 10%% range beat range 0 on own speedup", ten[i].Target)
		}
		if ten[i].OwnSpeedup < 0.9*zero[i].OwnSpeedup-1e-9 {
			t.Errorf("%s: 10%% range selection fell below the floor (%f < 0.9*%f)",
				ten[i].Target, ten[i].OwnSpeedup, zero[i].OwnSpeedup)
		}
		// Wider range can only help the average.
		if ten[i].Average < zero[i].Average-1e-9 {
			t.Errorf("%s: widening range hurt the average", ten[i].Target)
		}
		if inf[i].Average < ten[i].Average-1e-9 {
			t.Errorf("%s: infinite range hurt the average", inf[i].Target)
		}
	}
	// Range=∞ picks the same architecture for every target.
	for i := 1; i < len(inf); i++ {
		if inf[i].ArchIdx != inf[0].ArchIdx {
			t.Error("Range=∞ rows disagree on the architecture")
		}
	}
	bo := res.BestOverall(cap)
	if bo == nil || bo.ArchIdx != inf[0].ArchIdx {
		t.Error("BestOverall disagrees with Range=∞ selection")
	}
}

func TestSpreadAtCost(t *testing.T) {
	e := smallExplorer("A", "H")
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := res.SpreadAtCost("A", 8, 0.5)
	if lo <= 0 || hi < lo {
		t.Errorf("spread = [%f, %f], want 0 < lo <= hi", lo, hi)
	}
}

func TestPersistRoundTrip(t *testing.T) {
	r := syntheticResults()
	r.Stats = Stats{Runs: 42, Architectures: len(r.Archs), Benchmarks: len(r.Benches)}
	path := t.TempDir() + "/results.json"
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Archs) != len(r.Archs) || back.Archs[1] != r.Archs[1] {
		t.Errorf("archs did not round-trip: %v vs %v", back.Archs, r.Archs)
	}
	if back.Stats.Runs != 42 {
		t.Errorf("stats did not round-trip: %+v", back.Stats)
	}
	for _, b := range r.Benches {
		for i := range r.Eval[b] {
			if back.Eval[b][i].Speedup != r.Eval[b][i].Speedup {
				t.Fatalf("eval %s[%d] did not round-trip", b, i)
			}
		}
	}
	// Selection on loaded results must work identically.
	a := r.SelectConstrained(10, 0)
	bsel := back.SelectConstrained(10, 0)
	if len(a) != len(bsel) || (len(a) > 0 && a[0].ArchIdx != bsel[0].ArchIdx) {
		t.Error("selection differs after round-trip")
	}
}

// TestMinMaxArchRefusedByDocument: the document's architecture list has
// no min/max flag, so encoding a MinMax machine is an error rather than
// a document that reloads as another machine.
func TestMinMaxArchRefusedByDocument(t *testing.T) {
	r := syntheticResults()
	r.Archs[1] = r.Archs[1].WithMinMax()
	data, err := r.JSON()
	if err == nil {
		back, _ := FromJSON(data)
		t.Fatalf("JSON encoded %v with the min/max repertoire; it reloads with MinMax %v", r.Archs[1], back.Archs[1].MinMax)
	}
	if !strings.Contains(err.Error(), r.Archs[1].String()) {
		t.Errorf("error %q does not name %v", err, r.Archs[1])
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	path := t.TempDir() + "/bad.json"
	if err := writeFile(path, "{not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(t.TempDir() + "/missing.json"); err == nil {
		t.Error("missing file accepted")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestEvaluatorCachesPreparedIR(t *testing.T) {
	ev := NewEvaluator()
	ev.Width = 32
	b := bench.ByName("G")
	a1 := machine.Baseline
	a2 := machine.Arch{ALUs: 2, MULs: 1, Regs: 64, L2Ports: 1, L2Lat: 4, Clusters: 1}
	e1 := ev.Evaluate(b, a1)
	n1 := ev.Compilations.Load()
	e2 := ev.Evaluate(b, a2)
	n2 := ev.Compilations.Load()
	if e1.Failed || e2.Failed {
		t.Fatal("evaluation failed")
	}
	// The second evaluation must reuse the prepared IR (compilations
	// grow only by the second arch's unroll sweep, not by preparation
	// failures).
	if n2-n1 > int64(len(UnrollFactors)) {
		t.Errorf("second evaluation ran %d compiles (> unroll sweep)", n2-n1)
	}
}

// TestReferenceWidthInsensitivity: the choice of reference row width
// must not change the conclusions — speedups measured at 48 and 192
// pixels must agree within a few percent once the pixel loop dominates.
func TestReferenceWidthInsensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles benchmarks at two widths")
	}
	arch := machine.Arch{ALUs: 8, MULs: 4, Regs: 256, L2Ports: 2, L2Lat: 2, Clusters: 2}
	for _, name := range []string{"A", "D", "G", "H"} {
		b := bench.ByName(name)
		su := func(width int) float64 {
			ev := NewEvaluator()
			ev.Width = width
			base := ev.Evaluate(b, machine.Baseline)
			rich := ev.Evaluate(b, arch)
			if base.Failed || rich.Failed {
				t.Fatalf("%s at width %d failed", name, width)
			}
			return base.Time / rich.Time
		}
		a, c := su(48), su(192)
		if diff := math.Abs(a-c) / c; diff > 0.10 {
			t.Errorf("%s: speedup %.2f at width 48 vs %.2f at 192 (%.0f%% drift)",
				name, a, c, 100*diff)
		}
	}
}

// TestExploreRunsReuseArenas: an exploration's workers hand their
// arenas back when the run ends, and the next run's workers must find
// them whichever P they start on — a collection and a storm of yielding
// goroutines in between shuffle that. The sync.Pool this pins the
// replacement of kept a Put in the putting P's private slot, so the
// second worker of the next run found its arena only when the Ps lined
// up (run with -count=20 to see the parent fail).
func TestExploreRunsReuseArenas(t *testing.T) {
	col := obs.NewCollector()
	obs.Install(col)
	defer obs.Install(nil)
	made := col.Counter("sched.arenas_made").Value

	run := func() {
		e := NewExplorer()
		e.Benchmarks = []*bench.Benchmark{bench.ByName("G"), bench.ByName("D")}
		e.Archs = smallSpace
		e.Workers = 2
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	runtime.GC()
	var wg sync.WaitGroup
	for g := 0; g < 4*runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	before := made()
	run()
	if extra := made() - before; extra != 0 {
		t.Errorf("the second exploration made %d arenas: the first one's two were idle", extra)
	}
}
