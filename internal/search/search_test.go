package search

import (
	"context"
	"math"
	"testing"

	"customfit/internal/machine"
)

// must unwraps a strategy run under a context that does not end (bg, or
// one the test never cancels), which cannot return an error.
var bg = context.Background()

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// costSpeedupObjective is a synthetic but realistically-shaped
// objective: diminishing returns in ALUs and registers, a cycle-time
// penalty, and a hard cost cap — no compilation needed, so strategy
// behaviour can be tested quickly and deterministically.
func costSpeedupObjective(costCap float64) Objective {
	cost := machine.DefaultCostModel
	cyc := machine.DefaultCycleModel
	return func(a machine.Arch) float64 {
		if cost.Cost(a) > costCap {
			return math.Inf(-1)
		}
		ilp := math.Log2(float64(a.ALUs)+1)*2 + math.Log2(float64(a.Regs))/2 +
			float64(a.L2Ports)*0.7 - float64(a.L2Lat)*0.15 -
			0.4*math.Log2(float64(a.Clusters)+1)
		return ilp / cyc.Derate(a)
	}
}

func TestExhaustiveFindsOptimum(t *testing.T) {
	space := machine.FullSpace()
	obj := costSpeedupObjective(10)
	r := must(ExhaustiveCtx(bg, space, obj, nil))
	if r.Evaluations != len(space) {
		t.Errorf("exhaustive evaluated %d of %d", r.Evaluations, len(space))
	}
	// Verify it really is the max.
	for _, a := range space {
		if obj(a) > r.BestScore {
			t.Fatalf("missed better point %v", a)
		}
	}
}

func TestStrategiesRespectBudgetAndFindGoodPoints(t *testing.T) {
	space := machine.FullSpace()
	obj := costSpeedupObjective(10)
	results := must(CompareCtx(bg, space, obj, nil, 42))
	if len(results) != 4 {
		t.Fatalf("got %d strategies", len(results))
	}
	for _, r := range results[1:] {
		if r.Evaluations >= results[0].Evaluations {
			t.Errorf("%s used %d evaluations, not fewer than exhaustive %d",
				r.Strategy, r.Evaluations, results[0].Evaluations)
		}
		if r.Optimality < 0.85 {
			t.Errorf("%s reached only %.0f%% of optimum", r.Strategy, 100*r.Optimality)
		}
		if machine.DefaultCostModel.Cost(r.Best) > 10 {
			t.Errorf("%s selected over-budget architecture %v", r.Strategy, r.Best)
		}
	}
}

func TestSearchDeterministicForSeed(t *testing.T) {
	space := machine.FullSpace()
	obj := costSpeedupObjective(15)
	a := must(HillClimbCtx(bg, space, obj, 3, 7, nil))
	b := must(HillClimbCtx(bg, space, obj, 3, 7, nil))
	if a.Best != b.Best || a.Evaluations != b.Evaluations {
		t.Error("hill climb not deterministic for fixed seed")
	}
	c := must(AnnealCtx(bg, space, obj, 100, 7))
	d := must(AnnealCtx(bg, space, obj, 100, 7))
	if c.Best != d.Best {
		t.Error("annealing not deterministic for fixed seed")
	}
}

func TestNeighborsStayInSpace(t *testing.T) {
	space := machine.FullSpace()
	in := spaceSet(space)
	for _, a := range space[:50] {
		for _, n := range Neighbors(a, in) {
			if !in[n] {
				t.Fatalf("neighbor %v of %v not in space", n, a)
			}
		}
	}
}

func TestSubLatticeDenseAndValid(t *testing.T) {
	sub := SubLattice()
	if len(sub) < 50 {
		t.Fatalf("sub-lattice too small: %d", len(sub))
	}
	in := spaceSet(sub)
	for _, a := range sub {
		if err := a.Validate(); err != nil {
			t.Errorf("invalid point %v: %v", a, err)
		}
	}
	// Most points should have at least two in-lattice neighbors, or the
	// local strategies starve.
	starved := 0
	for _, a := range sub {
		if len(Neighbors(a, in)) < 2 {
			starved++
		}
	}
	if starved > len(sub)/5 {
		t.Errorf("%d of %d points have <2 neighbors", starved, len(sub))
	}
}

func TestCompoundNeighborCrossesRidge(t *testing.T) {
	sub := SubLattice()
	in := spaceSet(sub)
	// From a 4-ALU 2-cluster machine, the compound move must reach the
	// 8-ALU 4-cluster machine directly.
	from := machine.Arch{ALUs: 4, MULs: 1, Regs: 128, L2Ports: 2, L2Lat: 2, Clusters: 2}
	if !in[from] {
		t.Skip("anchor not in lattice")
	}
	want := machine.Arch{ALUs: 8, MULs: 2, Regs: 128, L2Ports: 2, L2Lat: 2, Clusters: 4}
	found := false
	for _, n := range Neighbors(from, in) {
		if n == want {
			found = true
		}
	}
	if !found {
		t.Errorf("compound widen move missing from %v's neighborhood", from)
	}
}
