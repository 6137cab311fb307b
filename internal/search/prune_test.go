package search

import (
	"math"
	"testing"

	"customfit/internal/machine"
)

// slackBound wraps an objective into an admissible bound: obj + slack
// everywhere feasible, preserving -Inf infeasibility. Tight enough to
// prune heavily, loose enough to exercise the ≥-objective contract.
func slackBound(obj Objective, slack float64) Bound {
	return func(a machine.Arch) float64 {
		v := obj(a)
		if math.IsInf(v, -1) {
			return v
		}
		return v + slack
	}
}

func TestExhaustiveBoundedExactAndPrunes(t *testing.T) {
	space := machine.FullSpace()
	obj := costSpeedupObjective(10)
	plain := must(ExhaustiveCtx(bg, space, obj, nil))
	bounded := must(ExhaustiveCtx(bg, space, obj, slackBound(obj, 0.25)))
	if bounded.Best != plain.Best || bounded.BestScore != plain.BestScore {
		t.Fatalf("pruned optimum (%v, %g) differs from exhaustive (%v, %g)",
			bounded.Best, bounded.BestScore, plain.Best, plain.BestScore)
	}
	if bounded.Pruned == 0 {
		t.Error("bound never pruned on the full space")
	}
	if bounded.Evaluations+bounded.Pruned != len(space) {
		t.Errorf("evals %d + pruned %d != space %d",
			bounded.Evaluations, bounded.Pruned, len(space))
	}
	if plain.Pruned != 0 {
		t.Errorf("unbounded exhaustive reports %d pruned", plain.Pruned)
	}
}

func TestHillClimbBoundedExact(t *testing.T) {
	space := machine.FullSpace()
	obj := costSpeedupObjective(10)
	for _, seed := range []int64{1, 7, 42} {
		plain := must(HillClimbCtx(bg, space, obj, 4, seed, nil))
		bounded := must(HillClimbCtx(bg, space, obj, 4, seed, slackBound(obj, 0.25)))
		if bounded.Best != plain.Best || bounded.BestScore != plain.BestScore {
			t.Fatalf("seed %d: pruned climb found (%v, %g), plain found (%v, %g)",
				seed, bounded.Best, bounded.BestScore, plain.Best, plain.BestScore)
		}
		if bounded.Evaluations > plain.Evaluations {
			t.Errorf("seed %d: pruning increased evaluations %d > %d",
				seed, bounded.Evaluations, plain.Evaluations)
		}
	}
}

// TestCompareWithBoundMatchesCompare pins the headline exactness
// contract: with an admissible bound, every strategy — pruned
// deterministic ones and untouched stochastic ones — reports the same
// Best and BestScore as the unpruned run with the same seed.
func TestCompareWithBoundMatchesCompare(t *testing.T) {
	space := machine.FullSpace()
	obj := costSpeedupObjective(10)
	plain := must(CompareCtx(bg, space, obj, nil, 42))
	bounded := must(CompareCtx(bg, space, obj, slackBound(obj, 0.25), 42))
	if len(plain) != len(bounded) {
		t.Fatalf("strategy counts differ: %d vs %d", len(plain), len(bounded))
	}
	for i := range plain {
		p, b := plain[i], bounded[i]
		if p.Strategy != b.Strategy || p.Best != b.Best || p.BestScore != b.BestScore {
			t.Errorf("%s: bounded (%v, %g) differs from plain (%v, %g)",
				p.Strategy, b.Best, b.BestScore, p.Best, p.BestScore)
		}
		if p.Optimality != b.Optimality {
			t.Errorf("%s: optimality %g vs %g", p.Strategy, b.Optimality, p.Optimality)
		}
	}
}

func TestCompareWithBoundDeterministicForSeed(t *testing.T) {
	space := machine.FullSpace()
	obj := costSpeedupObjective(15)
	bound := slackBound(obj, 0.5)
	a := must(CompareCtx(bg, space, obj, bound, 9))
	b := must(CompareCtx(bg, space, obj, bound, 9))
	if len(a) != len(b) {
		t.Fatal("strategy counts differ across identical runs")
	}
	for i := range a {
		if a[i].Best != b[i].Best || a[i].BestScore != b[i].BestScore ||
			a[i].Evaluations != b[i].Evaluations || a[i].Pruned != b[i].Pruned {
			t.Errorf("%s not reproducible for fixed seed: %+v vs %+v",
				a[i].Strategy, a[i], b[i])
		}
	}
}
