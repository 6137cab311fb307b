// Compare design-space search strategies on a real objective: speedup
// of the color-conversion kernel D under a cost budget, where every
// evaluation retargets the compiler and prices the schedule — the
// paper's third research question ("How effective are search methods
// aimed at finding the appropriate architecture?") answered with data.
//
//	go run ./examples/search-compare
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"customfit/internal/bench"
	"customfit/internal/dse"
	"customfit/internal/machine"
	"customfit/internal/search"
)

func main() {
	b := bench.ByName("D")
	// A dense sub-lattice keeps the ±1-step neighborhoods intact, which
	// the local search strategies need.
	space := search.SubLattice()

	ev := dse.NewEvaluator()
	ev.Width = 64
	baseline := ev.Evaluate(b, machine.Baseline)
	if baseline.Failed {
		log.Fatal("baseline evaluation failed")
	}
	budget := 8.0
	obj := func(a machine.Arch) float64 {
		if machine.DefaultCostModel.Cost(a) > budget {
			return math.Inf(-1)
		}
		e := ev.Evaluate(b, a)
		if e.Failed {
			return math.Inf(-1)
		}
		return baseline.Time / e.Time
	}

	fmt.Printf("fitting %s (%s)\nbudget %.1f over %d machines; every evaluation is a real compile\n\n",
		b.Name, b.Desc, budget, len(space))
	results, err := search.CompareCtx(context.Background(), space, obj, nil, 2026)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %-20s %9s %7s %12s\n", "strategy", "best arch", "speedup", "evals", "of optimum")
	for _, r := range results {
		fmt.Printf("%-12s %-20s %8.2fx %7d %11.1f%%\n",
			r.Strategy, r.Best, r.BestScore, r.Evaluations, 100*r.Optimality)
	}
	fmt.Println("\nthe paper's conjecture (§2.2): \"any good search technique could cut down")
	fmt.Println("significantly on processing time without greatly affecting the results\"")
}
