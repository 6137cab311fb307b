// Package tables renders the reproduction's results in the layout of
// the paper's tables and figures: fixed-width text tables for Tables
// 3/6/7/8/9/10, CSV series and ASCII scatter plots for Figures 3/4,
// the search-strategy table, and the report that gathers what
// EXPERIMENTS.md quotes.
package tables

import (
	"fmt"
	"math"
	"strings"

	"customfit/internal/dse"
	"customfit/internal/machine"
	"customfit/internal/search"
)

// Table6 renders the cost model over the paper's example
// configurations next to the paper's published values.
func Table6(cm machine.CostModel) string {
	var sb strings.Builder
	sb.WriteString("Table 6: architecture costs (relative to baseline)\n")
	sb.WriteString("IALU IMUL L2MEM REGS CLUSTERS |  paper  model\n")
	for _, pt := range machine.Table6 {
		a := pt.Arch
		fmt.Fprintf(&sb, "%4d %4d %5d %4d %8d | %6.1f %6.2f\n",
			a.ALUs, a.MULs, a.L2Ports, a.Regs, a.Clusters, pt.Cost, cm.Cost(a))
	}
	fmt.Fprintf(&sb, "worst-case relative error: %.1f%%\n", 100*machine.MaxRelErrCost(cm))
	return sb.String()
}

// Table7 renders the cycle-speed derating model against the paper.
func Table7(cm machine.CycleModel) string {
	var sb strings.Builder
	sb.WriteString("Table 7: cycle-speed derating factors (relative to baseline)\n")
	sb.WriteString("IALU L2MEM CLUSTERS |  paper  model\n")
	for _, pt := range machine.Table7 {
		a := pt.Arch
		fmt.Fprintf(&sb, "%4d %5d %8d | %6.1f %6.2f\n",
			a.ALUs, a.L2Ports, a.Clusters, pt.Derate, cm.Derate(a))
	}
	fmt.Fprintf(&sb, "worst-case relative error: %.1f%%\n", 100*machine.MaxRelErrCycle(cm))
	return sb.String()
}

// Stats renders the exploration statistics in the shape of Table 3.
func Stats(st dse.Stats) string {
	var sb strings.Builder
	sb.WriteString("Table 3 (analog): experiment computation time\n")
	fmt.Fprintf(&sb, "  # runs                         %d\n", st.Runs)
	fmt.Fprintf(&sb, "  # architectures (clustered)    %d\n", st.Architectures)
	fmt.Fprintf(&sb, "  # design points                %d\n", st.DesignPoints)
	fmt.Fprintf(&sb, "  # benchmarks                   %d\n", st.Benchmarks)
	fmt.Fprintf(&sb, "  runtime per architecture       %v\n", st.PerArch.Round(1000000))
	fmt.Fprintf(&sb, "  compile+evaluate per run       %v\n", st.PerRun.Round(1000))
	fmt.Fprintf(&sb, "  total time                     %v\n", st.WallTime.Round(1000000))
	// Per-phase breakdown (absent from runs saved before the Phases
	// field existed — those print the classic table only).
	if st.Phases != (dse.PhaseTimes{}) || st.Failures > 0 {
		fmt.Fprintf(&sb, "  failed evaluations             %d\n", st.Failures)
		fmt.Fprintf(&sb, "  compile time (cum)             %v\n", st.Phases.Compile.Round(1000000))
		fmt.Fprintf(&sb, "  simulate time (cum)            %v\n", st.Phases.Simulate.Round(1000000))
		fmt.Fprintf(&sb, "  cost-model time (cum)          %v\n", st.Phases.CostModel.Round(1000))
	}
	return sb.String()
}

// rangeName formats a back-off range for headers.
func rangeName(rng float64) string {
	if math.IsInf(rng, 1) {
		return "∞"
	}
	return fmt.Sprintf("%.0f%%", rng*100)
}

// Selection renders one Table 8/9/10 block: selections for each target
// benchmark under the cost cap at each back-off range, in the paper's
// layout.
func Selection(res *dse.Results, costCap float64, ranges []float64) string {
	var sb strings.Builder
	for _, rng := range ranges {
		fmt.Fprintf(&sb, "Cost=%.1f Range=%s\n", costCap, rangeName(rng))
		header := fmt.Sprintf("%-26s %-12s", "Arch Desc", "(su,c)")
		for _, b := range dse.DisplayBenches {
			header += fmt.Sprintf(" %6s", b)
		}
		sb.WriteString(header + "    avg\n")
		if math.IsInf(rng, 1) {
			if ch := res.BestOverall(costCap); ch != nil {
				sb.WriteString(selectionRow(res, "all", *ch))
			}
		} else {
			for _, ch := range res.SelectConstrained(costCap, rng) {
				sb.WriteString(selectionRow(res, ch.Target, ch))
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func selectionRow(res *dse.Results, label string, ch dse.Choice) string {
	arch := res.Archs[ch.ArchIdx]
	row := fmt.Sprintf("%-26s (%4.1f %4.1f)", label+arch.String(), ch.OwnSpeedup, ch.Cost)
	for _, b := range dse.DisplayBenches {
		row += fmt.Sprintf(" %6.2f", ch.Speedups[b])
	}
	row += fmt.Sprintf(" %6.2f\n", ch.Average)
	return row
}

// ScatterCSV emits a Figure 3/4 data series for one benchmark:
// cost,speedup,best per design point (best cluster arrangement).
func ScatterCSV(res *dse.Results, benchName string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# figure data for benchmark %s: cost,speedup,frontier,arch\n", benchName)
	for _, p := range res.Scatter(benchName) {
		best := 0
		if p.Best {
			best = 1
		}
		fmt.Fprintf(&sb, "%.3f,%.3f,%d,%s\n", p.Cost, p.Speedup, best, p.Arch)
	}
	return sb.String()
}

// ScatterASCII draws the cost/speedup scatter for one benchmark as an
// ASCII plot in the style of the paper's Figures 3/4 (log-x cost axis,
// linear speedup axis, '*' = frontier, '.' = other points).
func ScatterASCII(res *dse.Results, benchName string, width, height int) string {
	pts := res.Scatter(benchName)
	if len(pts) == 0 {
		return fmt.Sprintf("%s: no data\n", benchName)
	}
	if width <= 0 {
		width = 64
	}
	if height <= 0 {
		height = 16
	}
	maxSu := 0.0
	minC, maxC := math.Inf(1), 0.0
	for _, p := range pts {
		if p.Speedup > maxSu {
			maxSu = p.Speedup
		}
		if p.Cost < minC {
			minC = p.Cost
		}
		if p.Cost > maxC {
			maxC = p.Cost
		}
	}
	if maxSu <= 0 {
		maxSu = 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	lx := func(c float64) int {
		if maxC <= minC {
			return 0
		}
		f := (math.Log(c) - math.Log(minC)) / (math.Log(maxC) - math.Log(minC))
		x := int(f * float64(width-1))
		if x < 0 {
			x = 0
		}
		if x >= width {
			x = width - 1
		}
		return x
	}
	ly := func(su float64) int {
		y := height - 1 - int(su/maxSu*float64(height-1))
		if y < 0 {
			y = 0
		}
		if y >= height {
			y = height - 1
		}
		return y
	}
	for _, p := range pts {
		x, y := lx(p.Cost), ly(p.Speedup)
		ch := byte('.')
		if p.Best {
			ch = '*'
		}
		if grid[y][x] == ' ' || ch == '*' {
			grid[y][x] = ch
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s  (speedup 0..%.1f vs cost %.1f..%.1f, log x; * = best frontier)\n",
		benchName, maxSu, minC, maxC)
	for _, row := range grid {
		sb.WriteString("  |" + string(row) + "\n")
	}
	sb.WriteString("  +" + strings.Repeat("-", width) + "\n")
	return sb.String()
}

// Table1And2 renders the benchmark suite in the layout of the paper's
// Tables 1 (individual) and 2 (jammed).
func Table1And2(individual, jammed []BenchDesc) string {
	var sb strings.Builder
	sb.WriteString("Table 1: the individual benchmarks\n")
	for _, b := range individual {
		fmt.Fprintf(&sb, "  %-5s %s\n", b.Name, b.Desc)
	}
	sb.WriteString("\nTable 2: the jammed benchmarks\n")
	for _, b := range jammed {
		fmt.Fprintf(&sb, "  %-5s %s\n", b.Name, b.Desc)
	}
	return sb.String()
}

// BenchDesc is a (name, description) pair for Table1And2; defined here
// to keep tables decoupled from the bench package.
type BenchDesc struct {
	Name, Desc string
}

// Search renders a search-strategy comparison, one row per strategy:
// its best machine and speedup, the evaluations it spent and the ones
// pruning saved, and its share of the exhaustive optimum. A strategy
// that found no feasible machine reads "none".
func Search(rs []search.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %-22s %9s %7s %7s %11s\n", "strategy", "best arch", "speedup", "evals", "pruned", "of optimum")
	for _, r := range rs {
		if math.IsInf(r.BestScore, -1) {
			fmt.Fprintf(&sb, "%-12s %-22s %9s %7d %7d %11s\n", r.Strategy, "none", "-", r.Evaluations, r.Pruned, "-")
			continue
		}
		fmt.Fprintf(&sb, "%-12s %-22s %9.2f %7d %7d %10.1f%%\n",
			r.Strategy, r.Best, r.BestScore, r.Evaluations, r.Pruned, 100*r.Optimality)
	}
	return sb.String()
}
