// The experiment index of DESIGN.md as runnable code: one testing.B
// benchmark per table and figure in the paper's evaluation section, plus
// the search study on a model-based objective (the compile studies
// themselves are EXPERIMENTS.md's studies block, which the root test
// TestExperimentsStudies pins exactly). Each regenerates its
// table/figure from a shared sampled exploration (the full-space run is
// cmd/cfp-explore; see EXPERIMENTS.md for full-space numbers) and
// reports the headline quantities as custom metrics. Those quality
// metrics are the payload, not ns/op: nothing here is recorded by `make
// bench` or gated by `make bench-diff` — per-compile and per-simulation
// cost are measured by internal/dse's BenchmarkEvaluate, a compiled
// search move (Evaluate with no arena, as cfp-search and
// core.SearchCompare call it; BenchmarkSearchMethods below scores
// from sampled results instead) by its BenchmarkEvaluateSearch,
// internal/sim's BenchmarkSimRun, internal/core's BenchmarkOneShot (parse, compile and
// run with nothing amortised) and the oneshot_sim workload of
// benchmark/, the cost of asking again by internal/core's
// BenchmarkWarmFit (a fit answered from a warm cache directory) and the
// explore_warm workload.
//
//	go test -bench=. -benchmem
package customfit_test

import (
	"context"
	"math"
	"sync"
	"testing"

	"customfit/internal/dse"
	"customfit/internal/machine"
	"customfit/internal/search"
	"customfit/internal/tables"
)

// sharedResults runs one sampled exploration (every 16th machine plus
// the paper's own example architectures) reused by every table/figure
// benchmark below.
var (
	resultsOnce sync.Once
	results     *dse.Results
	resultsErr  error
)

func sharedResults(b *testing.B) *dse.Results {
	b.Helper()
	resultsOnce.Do(func() {
		full := machine.FullSpace()
		seen := map[machine.Arch]bool{}
		var archs []machine.Arch
		add := func(a machine.Arch) {
			if !seen[a] {
				seen[a] = true
				archs = append(archs, a)
			}
		}
		for i := 0; i < len(full); i += 16 {
			add(full[i])
		}
		add(machine.Baseline)
		// The architectures the paper's Tables 8-10 select.
		for _, t := range [][6]int{
			{4, 2, 256, 1, 4, 4}, {8, 2, 128, 1, 4, 4}, {8, 2, 128, 1, 8, 4},
			{8, 4, 256, 1, 4, 4}, {8, 2, 256, 1, 4, 4}, {16, 4, 128, 1, 4, 8},
			{16, 4, 256, 2, 4, 8}, {16, 4, 512, 1, 4, 8}, {8, 4, 512, 1, 4, 4},
			{16, 4, 512, 1, 8, 8}, {16, 8, 256, 1, 4, 8}, {8, 2, 256, 1, 8, 4},
		} {
			a := machine.Arch{ALUs: t[0], MULs: t[1], Regs: t[2], L2Ports: t[3], L2Lat: t[4], Clusters: t[5]}
			if a.Validate() == nil {
				add(a)
			}
		}
		e := dse.NewExplorer()
		e.Archs = archs
		e.Width = 64
		results, resultsErr = e.Run()
	})
	if resultsErr != nil {
		b.Fatal(resultsErr)
	}
	return results
}

// BenchmarkTable3_ExperimentStats regenerates the Table 3 analog:
// compilation counts and per-run cost of the exploration itself.
func BenchmarkTable3_ExperimentStats(b *testing.B) {
	res := sharedResults(b)
	var out string
	for i := 0; i < b.N; i++ {
		out = tables.Stats(res.Stats)
	}
	_ = out
	b.ReportMetric(float64(res.Stats.Runs), "runs")
	b.ReportMetric(float64(res.Stats.Architectures), "architectures")
	b.ReportMetric(float64(res.Stats.PerRun.Microseconds()), "µs/run")
}

// BenchmarkTable6_CostModel regenerates the paper's Table 6 from the
// fitted cost model and reports the worst-case error vs the paper.
func BenchmarkTable6_CostModel(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = tables.Table6(machine.DefaultCostModel)
	}
	_ = out
	b.ReportMetric(100*machine.MaxRelErrCost(machine.DefaultCostModel), "worst%err")
}

// BenchmarkTable7_CycleModel regenerates the paper's Table 7.
func BenchmarkTable7_CycleModel(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = tables.Table7(machine.DefaultCycleModel)
	}
	_ = out
	b.ReportMetric(100*machine.MaxRelErrCycle(machine.DefaultCycleModel), "worst%err")
}

// selection regenerates one of Tables 8/9/10 and reports the paper's
// headline quantities at that cost level: the best own-speedup across
// targets and the Range=∞ average.
func selection(b *testing.B, costCap float64, ranges []float64) {
	res := sharedResults(b)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = tables.Selection(res, costCap, ranges)
	}
	_ = out
	bestOwn := 0.0
	for _, ch := range res.SelectConstrained(costCap, 0) {
		if ch.OwnSpeedup > bestOwn {
			bestOwn = ch.OwnSpeedup
		}
	}
	b.ReportMetric(bestOwn, "best-own-speedup")
	if bo := res.BestOverall(costCap); bo != nil {
		b.ReportMetric(bo.Average, "range∞-avg")
	}
}

// BenchmarkTable8_LowCost regenerates Table 8 (cost < 5).
func BenchmarkTable8_LowCost(b *testing.B) {
	selection(b, 5, []float64{0, 0.10, math.Inf(1)})
}

// BenchmarkTable9_MediumCost regenerates Table 9 (cost < 10, including
// the Range=50% block with the paper's GEF back-off story).
func BenchmarkTable9_MediumCost(b *testing.B) {
	selection(b, 10, []float64{0, 0.10, 0.50, math.Inf(1)})
}

// BenchmarkTable10_HighCost regenerates Table 10 (cost < 15).
func BenchmarkTable10_HighCost(b *testing.B) {
	selection(b, 15, []float64{0, 0.10, math.Inf(1)})
}

// figure regenerates a Figure 3/4 scatter set and reports the frontier
// span of the first benchmark (max frontier speedup).
func figure(b *testing.B, names []string) {
	res := sharedResults(b)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range names {
			out = tables.ScatterCSV(res, n)
		}
	}
	_ = out
	maxSu := 0.0
	for _, p := range res.Scatter(names[0]) {
		if p.Best && p.Speedup > maxSu {
			maxSu = p.Speedup
		}
	}
	b.ReportMetric(maxSu, names[0]+"-max-speedup")
}

// BenchmarkFigure3_Scatter regenerates the Figure 3 cost/speedup
// scatter series (individual benchmarks A C D F G H).
func BenchmarkFigure3_Scatter(b *testing.B) {
	figure(b, []string{"A", "C", "D", "F", "G", "H"})
}

// BenchmarkFigure4_Scatter regenerates the Figure 4 series (jammed
// benchmarks GF GEF DH DHEF).
func BenchmarkFigure4_Scatter(b *testing.B) {
	figure(b, []string{"GF", "GEF", "DH", "DHEF"})
}

// BenchmarkSearchMethods compares search strategies' evaluation counts
// (the paper's §1.1 third question) on the model-based objective.
func BenchmarkSearchMethods(b *testing.B) {
	res := sharedResults(b)
	// Objective from the sampled results: speedup of A under cost 10.
	idx := map[machine.Arch]int{}
	for i, a := range res.Archs {
		idx[a] = i
	}
	obj := func(a machine.Arch) float64 {
		i, ok := idx[a]
		if !ok || res.Cost[i] > 10 || res.Eval["A"][i].Failed {
			return math.Inf(-1)
		}
		return res.Eval["A"][i].Speedup
	}
	var cmp []search.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp, _ = search.CompareCtx(context.Background(), res.Archs, obj, nil, int64(i)+1)
	}
	for _, r := range cmp {
		b.ReportMetric(float64(r.Evaluations), r.Strategy+"-evals")
		b.ReportMetric(100*r.Optimality, r.Strategy+"-%opt")
	}
}
