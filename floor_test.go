package customfit_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/dse"
	"customfit/internal/dse/dsetest"
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
