package customfit_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/dse"
	"customfit/internal/dse/dsetest"
	"customfit/internal/ir"
	"customfit/internal/opt"
	"customfit/internal/sched"
)

// median is the middle of xs, the mean of the middle two when their
// number is even. It sorts xs.
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}

// TestFloorGap pins the shipped space against the admissible floor
// (ROADMAP item 13): Evaluator.LowerBoundCycles, the bound the search
// prunes with, summed from per-block resource and recurrence bounds and
// the reference workload's visits, compiling nothing. The floor must
// never exceed a cell's stored cycles, and must bound every non-failed
// cell (the shipped space is op-free, where it never abstains). The
// gap, cycles over floor, is pinned as its median per benchmark and
// over the spilled and the unspilled cells. A backend change moves
// these on purpose, and says so.
func TestFloorGap(t *testing.T) {
	res := dsetest.Shipped(t)
	ev := dse.NewEvaluator()
	gaps := map[string][]float64{}
	var spilled, unspilled []float64
	for _, name := range res.Benches {
		b := bench.ByName(name)
		for _, cell := range res.Eval[name] {
			if cell.Failed {
				continue
			}
			floor, ok := ev.LowerBoundCycles(b, cell.Arch)
			if !ok || floor <= 0 {
				t.Fatalf("%s on %v: no floor", name, cell.Arch)
			}
			if floor > cell.Cycles {
				t.Errorf("%s on %v: floor %d above the stored %d cycles", name, cell.Arch, floor, cell.Cycles)
			}
			gap := float64(cell.Cycles) / float64(floor)
			gaps[name] = append(gaps[name], gap)
			if cell.Spilled > 0 {
				spilled = append(spilled, gap)
			} else {
				unspilled = append(unspilled, gap)
			}
		}
	}
	if n := len(spilled) + len(unspilled); n != 8380 {
		t.Errorf("%d non-failed cells, want 8380", n)
	}
	var got []string
	for _, name := range res.Benches {
		got = append(got, fmt.Sprintf("%s %.2f", name, median(gaps[name])))
	}
	got = append(got,
		fmt.Sprintf("spilled %d %.2f", len(spilled), median(spilled)),
		fmt.Sprintf("unspilled %d %.2f", len(unspilled), median(unspilled)))
	want := []string{
		"A 2.42", "C 1.22", "D 1.10", "E 1.03", "F 1.27", "G 1.02", "H 1.39",
		"GF 1.56", "GEF 1.54", "DH 1.41", "DHEF 1.39",
		"spilled 1528 2.27", "unspilled 6852 1.22",
	}
	if !slices.Equal(got, want) {
		t.Errorf("median gaps over the floor\n got %s\nwant %s", strings.Join(got, ", "), strings.Join(want, ", "))
	}
}

// TestFloorGapAtStoredUnroll pins the cluster tax the floor can see
// (ROADMAP item 15(a)): on every unspilled shipped cell, the gap over
// the floor at the unroll factor the cell kept — opt.Prepare,
// sched.NewPrepared, then sched.LowerBound weighted by the reference
// workload's block visits, compiling nothing — as its count and median
// per cluster count. One cluster runs near its floor and clusters do
// not; a partitioner change moves these on purpose, and says so. The
// floor must not exceed a cell's stored cycles.
func TestFloorGapAtStoredUnroll(t *testing.T) {
	res := dsetest.Shipped(t)
	type kernel struct {
		prep   *sched.Prepared
		visits map[string]int64
	}
	gaps := map[int][]float64{}
	for _, name := range res.Benches {
		b := bench.ByName(name)
		fn, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		byUnroll := map[int]kernel{}
		for _, cell := range res.Eval[name] {
			if cell.Failed || cell.Spilled > 0 {
				continue
			}
			k, ok := byUnroll[cell.Unroll]
			if !ok {
				g, err := opt.Prepare(fn, cell.Unroll)
				if err != nil {
					t.Fatal(err)
				}
				env := b.NewCase(96, 1).Clone().Env()
				env.Visits = map[string]int64{}
				if _, err := ir.Interp(g, env); err != nil {
					t.Fatal(err)
				}
				k = kernel{sched.NewPrepared(g), env.Visits}
				byUnroll[cell.Unroll] = k
			}
			var floor int64
			for i, lb := range sched.LowerBound(k.prep, cell.Arch) {
				floor += int64(lb) * k.visits[k.prep.F.Blocks[i].Name]
			}
			if floor <= 0 || floor > cell.Cycles {
				t.Errorf("%s on %v: floor %d at unroll %d, stored %d cycles", name, cell.Arch, floor, cell.Unroll, cell.Cycles)
				continue
			}
			gaps[cell.Arch.Clusters] = append(gaps[cell.Arch.Clusters], float64(cell.Cycles)/float64(floor))
		}
	}
	var got []string
	for _, c := range []int{1, 2, 4, 8} {
		got = append(got, fmt.Sprintf("c=%d %d %.2f", c, len(gaps[c]), median(gaps[c])))
	}
	want := []string{"c=1 2154 1.04", "c=2 2027 1.22", "c=4 1705 1.41", "c=8 966 1.44"}
	if !slices.Equal(got, want) {
		t.Errorf("unspilled cells and median gap over the floor at the stored unroll\n got %s\nwant %s", strings.Join(got, ", "), strings.Join(want, ", "))
	}
}

// TestUnrollBudgetStopsSweeps pins where the unroll budget
// (opt.MaxUnrolledOps), not the paper's spill rule, ends the sweep
// (ROADMAP item 18(a)), compiling nothing. Per benchmark it unrolls the
// optimized kernel at each factor of dse.UnrollFactors until opt refuses
// one, as the sweep stops at it. Where the budget refuses the sweep's
// last factor, it counts the unspilled, non-failed shipped cells that
// kept the largest factor opt accepts: their sweep stopped at the budget
// (EXPERIMENTS.md, divergence 7).
func TestUnrollBudgetStopsSweeps(t *testing.T) {
	res := dsetest.Shipped(t)
	last := dse.UnrollFactors[len(dse.UnrollFactors)-1]
	var capped []string
	total := 0
	for _, name := range res.Benches {
		fn, err := bench.ByName(name).Compile()
		if err != nil {
			t.Fatal(err)
		}
		if err := opt.Optimize(fn); err != nil {
			t.Fatal(err)
		}
		top := 0
		for _, u := range dse.UnrollFactors {
			if opt.Unroll(fn.Clone(), u) != nil {
				break
			}
			top = u
		}
		if top == last {
			continue
		}
		n := 0
		for _, cell := range res.Eval[name] {
			if !cell.Failed && cell.Spilled == 0 && cell.Unroll == top {
				n++
			}
		}
		capped = append(capped, fmt.Sprintf("%s %d", name, n))
		total += n
	}
	capped = append(capped, fmt.Sprintf("total %d", total))
	if want := []string{"C 292", "GEF 142", "DH 539", "DHEF 487", "total 1460"}; !slices.Equal(capped, want) {
		t.Errorf("unspilled cells at the largest factor the budget accepts\n got %s\nwant %s", strings.Join(capped, ", "), strings.Join(want, ", "))
	}
}
