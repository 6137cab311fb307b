package tables

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"customfit/internal/dse"
	"customfit/internal/machine"
	"customfit/internal/search"
)

// fakeResults builds a small synthetic Results so rendering can be
// tested without running the explorer.
func fakeResults() *dse.Results {
	archs := []machine.Arch{
		machine.Baseline,
		{ALUs: 4, MULs: 2, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 1},
		{ALUs: 4, MULs: 2, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 2},
		{ALUs: 8, MULs: 4, Regs: 256, L2Ports: 2, L2Lat: 4, Clusters: 2},
	}
	r := &dse.Results{Archs: archs}
	for _, a := range archs {
		r.Cost = append(r.Cost, machine.DefaultCostModel.Cost(a))
	}
	r.Eval = map[string][]dse.Evaluation{}
	for bi, b := range dse.DisplayBenches {
		evs := make([]dse.Evaluation, len(archs))
		for i := range archs {
			su := 1.0 + float64(i)*0.7 + float64(bi)*0.1
			if i == 0 {
				su = 1
			}
			evs[i] = dse.Evaluation{Arch: archs[i], Bench: b, Speedup: su, Unroll: 1, Cycles: 1000}
		}
		r.Eval[b] = evs
	}
	r.Benches = append([]string(nil), dse.DisplayBenches...)
	return r
}

func TestTable6And7Render(t *testing.T) {
	s6 := Table6(machine.DefaultCostModel)
	if !strings.Contains(s6, "93.4") || !strings.Contains(s6, "worst-case") {
		t.Errorf("Table6 incomplete:\n%s", s6)
	}
	s7 := Table7(machine.DefaultCycleModel)
	if !strings.Contains(s7, "7.3") {
		t.Errorf("Table7 incomplete:\n%s", s7)
	}
}

func TestSelectionRender(t *testing.T) {
	r := fakeResults()
	s := Selection(r, 10, []float64{0, 0.10, math.Inf(1)})
	for _, want := range []string{"Cost=10.0 Range=0%", "Range=10%", "Range=∞", "Arch Desc", "all("} {
		if !strings.Contains(s, want) {
			t.Errorf("Selection missing %q:\n%s", want, s)
		}
	}
	// Every display bench appears as a column header.
	for _, b := range dse.DisplayBenches {
		if !strings.Contains(s, b) {
			t.Errorf("missing column %s", b)
		}
	}
}

func TestScatterCSVAndASCII(t *testing.T) {
	r := fakeResults()
	csv := ScatterCSV(r, "A")
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) < 3 { // header + >=2 design points
		t.Errorf("CSV too short:\n%s", csv)
	}
	art := ScatterASCII(r, "A", 40, 10)
	if !strings.Contains(art, "*") {
		t.Errorf("ASCII scatter has no frontier markers:\n%s", art)
	}
	if ScatterASCII(r, "nope", 40, 10) == "" {
		t.Error("unknown benchmark should still render a message")
	}
}

func TestStatsRender(t *testing.T) {
	s := Stats(dse.Stats{Runs: 5730, Architectures: 191, Benchmarks: 11})
	if !strings.Contains(s, "5730") || !strings.Contains(s, "191") {
		t.Errorf("Stats incomplete:\n%s", s)
	}
}

func TestFrontierSummary(t *testing.T) {
	r := fakeResults()
	s := frontier(r)
	for _, want := range []string{
		"A      cost<5:  2.40x (4 2 128 1 4 2)  cost<10:  2.40x (4 2 128 1 4 2)  cost<15:  3.10x (8 4 256 2 4 2)  cost<100:  3.10x (8 4 256 2 4 2)\n",
		fmt.Sprintf("A     max speedup 3.10x at cost %.1f on (8 4 256 2 4 2)\n", r.Cost[3]),
	} {
		if !strings.Contains(s, want) {
			t.Errorf("frontier missing %q:\n%s", want, s)
		}
	}
	// Two machines tie on cost and speedup: the first in Archs is named.
	r.Archs = append(r.Archs, machine.Arch{ALUs: 8, MULs: 4, Regs: 256, L2Ports: 2, L2Lat: 2, Clusters: 2})
	r.Cost = append(r.Cost, r.Cost[3])
	for b, evs := range r.Eval {
		ev := evs[3]
		ev.Arch = r.Archs[4]
		r.Eval[b] = append(evs, ev)
	}
	if s2 := frontier(r); !strings.Contains(s2, "max speedup 3.10x at cost") || !strings.Contains(s2, "on (8 4 256 2 4 2)\n") ||
		strings.Contains(s2, "(8 4 256 2 2 2)") {
		t.Errorf("a tie names a machine other than the first in Archs:\n%s", s2)
	}
}

func TestReport(t *testing.T) {
	r := fakeResults()
	s := Report(r)
	for _, want := range []string{
		"Table 3 (analog)", "Table 6:", "Table 7:",
		"== Table 8: low cost (< 5.0) ==", "== Table 9: medium cost (< 10.0) ==", "Cost=10.0 Range=50%", "== Table 10: high cost (< 15.0) ==",
		"Headline claims", "cost<5:", "cost<100:", "A     max speedup",
		"== Failed evaluations: 0 of 40 (no unroll factor compiled) ==\n",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Report missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "Custom-op gains") {
		t.Error("an op-free report prints an op-gains section")
	}
	if Report(r) != s {
		t.Error("two reports of the same results differ")
	}
	if got, want := SelectionTable(r, 9), Selection(r, 10, []float64{0, 0.10, 0.50, math.Inf(1)}); got != want {
		t.Errorf("SelectionTable(9) is not Table 9:\n%s", got)
	}
	if SelectionTable(r, 7) != "" {
		t.Error("SelectionTable renders a table that is not a selection")
	}
}

// TestReportNamesFailures: the failed cells are counted from the
// evaluations, not from Stats, which files saved before Stats had
// Failures leave at zero.
func TestReportNamesFailures(t *testing.T) {
	r := fakeResults()
	r.Eval["A"][2].Failed = true
	s := Report(r)
	want := fmt.Sprintf("== Failed evaluations: 1 of 40 (no unroll factor compiled) ==\nA     %s  cost %.2f\n", r.Archs[2], r.Cost[2])
	if !strings.HasSuffix(s, want) {
		t.Errorf("report ends\n%s\nwant\n%s", s[strings.LastIndex(s, "== Failed"):], want)
	}
}

// opResults is an op-aware exploration in miniature: one machine with
// and without a fused multiply-add, which saves A a fifth of its
// cycles and H none.
func opResults(t *testing.T) *dse.Results {
	set, err := machine.ParseOpCatalog([]string{"mac/3/2:mul $0 $1;add %0 $2"})
	if err != nil {
		t.Fatal(err)
	}
	plain := machine.Arch{ALUs: 4, MULs: 2, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 1}
	fused := plain
	fused.Ops = machine.OpConfig{Set: set, Mask: set.FullMask()}
	r := &dse.Results{Archs: []machine.Arch{machine.Baseline, plain, fused}, Benches: []string{"A", "H"}}
	for _, a := range r.Archs {
		r.Cost = append(r.Cost, machine.DefaultCostModel.Cost(a))
	}
	cycles := map[string][]int64{"A": {1000, 500, 400}, "H": {1000, 600, 600}}
	r.Eval = map[string][]dse.Evaluation{}
	for _, b := range r.Benches {
		for i, a := range r.Archs {
			c := cycles[b][i]
			r.Eval[b] = append(r.Eval[b], dse.Evaluation{Arch: a, Bench: b, Unroll: 1, Cycles: c, Speedup: 1000 / float64(c)})
		}
	}
	return r
}

func TestOpGains(t *testing.T) {
	r := opResults(t)
	plain, fused := r.Archs[1], r.Archs[2]
	want := "\n== Custom-op gains (best cycle improvement vs the same machine without ops) ==\n" +
		fmt.Sprintf("A     cycles 500 -> 400  (-20.0%%)  cost %.2f -> %.2f  on %s\n", r.Cost[1], r.Cost[2], fused) +
		"H     no cycle improvement from the op set\n" +
		"custom ops improved simulated cycles on 1/2 benchmarks\n"
	if got := opGains(r); got != want {
		t.Errorf("opGains:\n%s\nwant\n%s", got, want)
	}
	if r.Cost[2] <= r.Cost[1] || plain.String() == fused.String() {
		t.Errorf("the op-enabled machine is not priced or named apart: %s %.2f, %s %.2f", plain, r.Cost[1], fused, r.Cost[2])
	}
	if !strings.Contains(Report(r), want) {
		t.Error("the report leaves out the op gains of op-aware results")
	}
}

func TestOpGainsSilentWithoutOps(t *testing.T) {
	if s := opGains(fakeResults()); s != "" {
		t.Errorf("op-free results print op gains:\n%s", s)
	}
}

func TestTable1And2(t *testing.T) {
	s := Table1And2(
		[]BenchDesc{{"A", "FIR"}, {"C", "IDCT"}},
		[]BenchDesc{{"GF", "scale+halftone"}},
	)
	for _, want := range []string{"Table 1", "Table 2", "A", "GF", "IDCT"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table1And2 missing %q", want)
		}
	}
}

func TestScatterSVG(t *testing.T) {
	r := fakeResults()
	svg := ScatterSVG(r, "A", 0, 0)
	for _, want := range []string{"<svg", "</svg>", "polyline", "circle", "speedup"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	if !strings.Contains(ScatterSVG(r, "nope", 100, 100), "no data") {
		t.Error("unknown benchmark should render a message")
	}
}

// TestSearchTable: a strategy that found no feasible machine reads
// "none", not the zero machine at -Inf.
func TestSearchTable(t *testing.T) {
	best := machine.Arch{ALUs: 8, MULs: 2, Regs: 128, L2Ports: 4, L2Lat: 2, Clusters: 4}
	got := Search([]search.Result{
		{Strategy: "exhaustive", Best: best, BestScore: 7.11, Evaluations: 49, Pruned: 137, Optimality: 1},
		{Strategy: "hill-climb", BestScore: math.Inf(-1), Evaluations: 4, Optimality: math.Inf(-1)},
	})
	want := "strategy     best arch                speedup   evals  pruned  of optimum\n" +
		"exhaustive   (8 2 128 4 2 4)             7.11      49     137      100.0%\n" +
		"hill-climb   none                           -       4       0           -\n"
	if got != want {
		t.Errorf("Search renders\n%s\nwant\n%s", got, want)
	}
}
