package tables

import (
	"fmt"
	"math"
	"strings"

	"customfit/internal/dse"
	"customfit/internal/machine"
)

// selections are the paper's Tables 8-10: a cost cap and the back-off
// ranges printed under it.
var selections = map[int]struct {
	title   string
	costCap float64
	ranges  []float64
}{
	8:  {"low cost", 5, []float64{0, 0.10, math.Inf(1)}},
	9:  {"medium cost", 10, []float64{0, 0.10, 0.50, math.Inf(1)}},
	10: {"high cost", 15, []float64{0, 0.10, math.Inf(1)}},
}

// frontierCaps are the cost caps the report's frontier reads: Tables
// 8-10's three, and one above the whole space.
var frontierCaps = []float64{5, 10, 15, 100}

// SelectionTable renders the paper's Table n (8, 9 or 10) from res, and
// "" for any other n.
func SelectionTable(res *dse.Results, n int) string {
	s := selections[n] // no ranges, no blocks
	return Selection(res, s.costCap, s.ranges)
}

// Report renders everything EXPERIMENTS.md quotes from one exploration,
// and compiles nothing: Table 3 from the results' own Stats, the cost
// and derating models (Tables 6 and 7), the constrained selections
// (Tables 8-10), the §5 claims, the best machine under each of a few
// cost caps and each benchmark's peak (Figures 3/4 in words), the
// custom-op gains when the results carry op-enabled machines, and the
// evaluations that failed. The same results print the same bytes.
func Report(res *dse.Results) string {
	var sb strings.Builder
	sb.WriteString(Stats(res.Stats))
	sb.WriteString("\n")
	sb.WriteString(Table6(machine.DefaultCostModel))
	sb.WriteString("\n")
	sb.WriteString(Table7(machine.DefaultCycleModel))
	sb.WriteString("\n")
	for n := 8; n <= 10; n++ {
		s := selections[n]
		fmt.Fprintf(&sb, "== Table %d: %s (< %.1f) ==\n", n, s.title, s.costCap)
		sb.WriteString(SelectionTable(res, n))
	}
	sb.WriteString(res.ComputeClaims().String())
	sb.WriteString("\n")
	sb.WriteString(frontier(res))
	sb.WriteString(opGains(res))
	sb.WriteString("\n")
	sb.WriteString(failures(res))
	return sb.String()
}

// frontier lists each benchmark's best machine under each frontier cap,
// then its peak anywhere in the space: Figures 3/4 read as text.
func frontier(res *dse.Results) string {
	var caps, peaks strings.Builder
	caps.WriteString("== Frontier: best speedup under each cost cap (Figures 3/4) ==\n")
	peaks.WriteString("== Peaks: best speedup anywhere, at the lowest cost reaching it ==\n")
	for _, b := range res.Benches {
		pts := res.Scatter(b)
		fmt.Fprintf(&caps, "%-5s", b)
		for _, c := range frontierCaps {
			if p, ok := bestUnder(pts, c); ok {
				fmt.Fprintf(&caps, "  cost<%.0f: %5.2fx %s", c, p.Speedup, p.Arch)
			} else {
				fmt.Fprintf(&caps, "  cost<%.0f: -", c)
			}
		}
		caps.WriteString("\n")
		if p, ok := bestUnder(pts, math.Inf(1)); ok {
			fmt.Fprintf(&peaks, "%-5s max speedup %.2fx at cost %.1f on %s\n", b, p.Speedup, p.Cost, p.Arch)
		}
	}
	return caps.String() + "\n" + peaks.String()
}

// bestUnder returns the fastest of pts costing at most costCap, the
// first of equals (Scatter orders points by cost).
func bestUnder(pts []dse.ScatterPoint, costCap float64) (dse.ScatterPoint, bool) {
	best := -1
	for i, p := range pts {
		if p.Cost <= costCap && (best < 0 || p.Speedup > pts[best].Speedup) {
			best = i
		}
	}
	if best < 0 {
		return dse.ScatterPoint{}, false
	}
	return pts[best], true
}

// opGains reports, for op-aware explorations, each benchmark's best
// simulated-cycle improvement from enabling custom ops on a machine
// versus the same base machine without them (the datapath is the same
// 6-tuple; the cost delta is exactly the op hardware's price). Empty
// when the results carry no op-enabled architectures.
func opGains(res *dse.Results) string {
	var sb strings.Builder
	hasOps, improved := false, 0
	for _, n := range res.Benches {
		evs := res.Eval[n]
		plain := map[machine.Arch]int64{} // op-free cycles per 6-tuple
		for _, ev := range evs {
			if !ev.Failed && ev.Arch.Ops.Empty() {
				plain[ev.Arch] = ev.Cycles
			}
		}
		var best *dse.Evaluation
		var bestWas int64
		bestPct := 0.0
		for i, ev := range evs {
			if ev.Arch.Ops.Empty() {
				continue
			}
			hasOps = true
			was, ok := plain[ev.Arch.WithOps(nil, 0)]
			if ev.Failed || !ok || ev.Cycles >= was {
				continue
			}
			if pct := 100 * float64(was-ev.Cycles) / float64(was); best == nil || pct > bestPct {
				best, bestWas, bestPct = &evs[i], was, pct
			}
		}
		if best == nil {
			fmt.Fprintf(&sb, "%-5s no cycle improvement from the op set\n", n)
			continue
		}
		improved++
		fmt.Fprintf(&sb, "%-5s cycles %d -> %d  (-%.1f%%)  cost %.2f -> %.2f  on %s\n",
			n, bestWas, best.Cycles, bestPct,
			machine.DefaultCostModel.Cost(best.Arch.WithOps(nil, 0)), machine.DefaultCostModel.Cost(best.Arch), best.Arch)
	}
	if !hasOps {
		return ""
	}
	return "\n== Custom-op gains (best cycle improvement vs the same machine without ops) ==\n" + sb.String() +
		fmt.Sprintf("custom ops improved simulated cycles on %d/%d benchmarks\n", improved, len(res.Benches))
}

// failures counts and names the evaluations where no unroll factor
// compiled, reading the cells themselves: results saved before Stats
// had Failures do not say.
func failures(res *dse.Results) string {
	var sb strings.Builder
	failed, cells := 0, 0
	for _, b := range res.Benches {
		for i, ev := range res.Eval[b] {
			cells++
			if ev.Failed {
				failed++
				fmt.Fprintf(&sb, "%-5s %s  cost %.2f\n", b, res.Archs[i], res.Cost[i])
			}
		}
	}
	return fmt.Sprintf("== Failed evaluations: %d of %d (no unroll factor compiled) ==\n", failed, cells) + sb.String()
}
