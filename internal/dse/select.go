package dse

import (
	"math"
)

// DisplayBenches are the columns of the paper's Tables 8-10 (benchmark
// E is evaluated but not displayed, matching the paper).
var DisplayBenches = []string{"A", "C", "D", "F", "G", "H", "GF", "GEF", "DH", "DHEF"}

// Choice is one row of a Table 8/9/10 block: the architecture selected
// for a target benchmark under a cost cap and back-off range, and its
// speedup on every displayed benchmark.
type Choice struct {
	Target     string
	ArchIdx    int
	OwnSpeedup float64 // speedup on the target
	Cost       float64
	Speedups   map[string]float64 // per displayed benchmark
	Average    float64            // mean over displayed benchmarks
}

// SelectConstrained reproduces the paper's Section 4.2 designer
// scenarios. For each target benchmark it picks, among architectures
// costing at most costCap, the one that maximizes average speedup on
// the other applications while staying within `rng` (e.g. 0.10 = 10%)
// of the best achievable speedup on the target itself. rng = 0 is pure
// specialization; math.Inf(1) reproduces the "Range=∞" row where every
// target gets the global-average-best machine.
func (r *Results) SelectConstrained(costCap, rng float64) []Choice {
	var out []Choice
	for _, target := range DisplayBenches {
		c := r.selectFor(target, costCap, rng)
		if c != nil {
			out = append(out, *c)
		}
	}
	return out
}

func (r *Results) selectFor(target string, costCap, rng float64) *Choice {
	evs := r.Eval[target]
	if evs == nil {
		return nil
	}
	// The best own speedup of a feasible candidate sets the floor; the
	// candidates over it compete.
	bestOwn := 0.0
	r.Feasible(costCap, DisplayBenches, func(i int, _ float64) {
		bestOwn = max(bestOwn, evs[i].Speedup)
	})
	floor := bestOwn * (1 - rng)
	if math.IsInf(rng, 1) {
		floor = 0
	}
	best := -1
	bestScore := -1.0
	r.Feasible(costCap, DisplayBenches, func(i int, mean float64) {
		if evs[i].Speedup < floor {
			return
		}
		score := r.avgOthers(i, target)
		if math.IsInf(rng, 1) {
			score = mean
		}
		if rng == 0 {
			// Pure specialization: maximize own speedup; break ties by
			// average on the others, then by lower cost.
			score = evs[i].Speedup*1e6 + r.avgOthers(i, target)
		}
		if score > bestScore || (score == bestScore && best >= 0 && r.Cost[i] < r.Cost[best]) {
			best, bestScore = i, score
		}
	})
	if best < 0 {
		return nil
	}
	ch := r.choice(target, best)
	ch.OwnSpeedup = evs[best].Speedup
	return ch
}

// Feasible calls yield, in grid order, for every architecture costing
// at most costCap on which every one of benches compiled, with its mean
// speedup over benches (summed in their order). It is the one candidate
// scan of every selection: Tables 8–10, their Range=∞ line and a
// custom fit. A benchmark r does not hold makes nothing feasible.
func (r *Results) Feasible(costCap float64, benches []string, yield func(i int, mean float64)) {
	for _, b := range benches {
		if r.Eval[b] == nil {
			return
		}
	}
	for i := range r.Archs {
		if r.Cost[i] > costCap {
			continue
		}
		sum, ok := 0.0, true
		for _, b := range benches {
			ev := &r.Eval[b][i]
			if ev.Failed {
				ok = false
				break
			}
			sum += ev.Speedup
		}
		if ok {
			yield(i, sum/float64(len(benches)))
		}
	}
}

// choice is the Table 8/9/10 row for architecture i, selected for
// target: its cost and its speedups on the displayed benchmarks.
func (r *Results) choice(target string, i int) *Choice {
	ch := &Choice{Target: target, ArchIdx: i, Cost: r.Cost[i], Speedups: map[string]float64{}}
	sum := 0.0
	for _, b := range DisplayBenches {
		su := r.Eval[b][i].Speedup
		ch.Speedups[b] = su
		sum += su
	}
	ch.Average = sum / float64(len(DisplayBenches))
	return ch
}

// avgOthers is the mean speedup at arch i over displayed benchmarks
// other than the target.
func (r *Results) avgOthers(i int, target string) float64 {
	sum, n := 0.0, 0
	for _, b := range DisplayBenches {
		if b == target {
			continue
		}
		sum += r.Eval[b][i].Speedup
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// BestOverall returns the single architecture maximizing average
// speedup under the cost cap (the Range=∞ bottom line of each table).
func (r *Results) BestOverall(costCap float64) *Choice {
	best := -1
	bestScore := -1.0
	r.Feasible(costCap, DisplayBenches, func(i int, mean float64) {
		if mean > bestScore {
			best, bestScore = i, mean
		}
	})
	if best < 0 {
		return nil
	}
	ch := r.choice("all", best)
	ch.OwnSpeedup = ch.Average
	return ch
}

// SpreadAtCost measures the paper's headline "factor of 5 between
// similar-cost reasonable architectures": among architectures within
// [cost*(1-tol), cost*(1+tol)], the ratio of best to worst speedup on
// the given benchmark.
func (r *Results) SpreadAtCost(benchName string, cost, tol float64) (lo, hi float64) {
	evs := r.Eval[benchName]
	lo, hi = math.Inf(1), 0
	for i := range evs {
		if evs[i].Failed {
			continue
		}
		if r.Cost[i] < cost*(1-tol) || r.Cost[i] > cost*(1+tol) {
			continue
		}
		su := evs[i].Speedup
		if su < lo {
			lo = su
		}
		if su > hi {
			hi = su
		}
	}
	if math.IsInf(lo, 1) {
		lo = 0
	}
	return lo, hi
}
