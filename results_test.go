package customfit_test

import (
	"math"
	"testing"

	"customfit/internal/dse"
	"customfit/internal/dse/dsetest"
	"customfit/internal/machine"
)

// TestShippedResultsSanity guards the results artifact checked into the
// repository (results_full.json, produced by cmd/cfp-explore): the
// headline structure EXPERIMENTS.md reports must hold in the shipped
// data. A missing artifact fails: it is the exploration tests' golden.
func TestShippedResultsSanity(t *testing.T) {
	res := dsetest.Shipped(t)
	if len(res.Benches) != 11 {
		t.Fatalf("benches = %d, want 11", len(res.Benches))
	}
	if res.Stats.Architectures < 700 {
		t.Errorf("architectures = %d, want full space", res.Stats.Architectures)
	}

	// The baseline must be present with speedup exactly 1 everywhere.
	baseIdx := -1
	for i, a := range res.Archs {
		if a == machine.Baseline {
			baseIdx = i
		}
	}
	if baseIdx < 0 {
		t.Fatal("baseline missing from results")
	}
	for _, b := range res.Benches {
		if su := res.Eval[b][baseIdx].Speedup; math.Abs(su-1) > 1e-9 {
			t.Errorf("%s baseline speedup = %f", b, su)
		}
	}

	// Headline structure (EXPERIMENTS.md §5):
	claims := res.ComputeClaims()
	over5 := 0
	for _, v := range claims.SpreadByBench {
		if v >= 5 {
			over5++
		}
	}
	if over5 < 6 {
		t.Errorf("only %d benchmarks show a >=5x similar-cost spread", over5)
	}
	if claims.WorstCrossFraction > 0.5 {
		t.Errorf("worst cross fraction %.2f — the specialization danger vanished", claims.WorstCrossFraction)
	}
	if claims.BackoffRecovery < 1.0 {
		t.Errorf("back-off recovery %.2f < 1 — RANGE selection broken", claims.BackoffRecovery)
	}

	// Per-benchmark character: A's peak beats C's peak (register/mul
	// hunger pays off at the top of the space); F's frontier is flat
	// (saturates cheap).
	peak := func(b string) (float64, float64) {
		best, cost := 0.0, 0.0
		for _, p := range res.Scatter(b) {
			if p.Speedup > best {
				best, cost = p.Speedup, p.Cost
			}
		}
		return best, cost
	}
	aPeak, _ := peak("A")
	cPeak, _ := peak("C")
	fPeak, fCost := peak("F")
	if aPeak <= cPeak {
		t.Errorf("A peak %.1f <= C peak %.1f", aPeak, cPeak)
	}
	if fPeak > 5 {
		t.Errorf("F peak %.1f — the error-diffusion recurrence should cap it", fPeak)
	}
	if fCost > 10 {
		t.Errorf("F's best machine costs %.1f — it should saturate on cheap machines", fCost)
	}

	// Selection sanity at every paper cost cap.
	for _, cap := range []float64{5, 10, 15} {
		rows := res.SelectConstrained(cap, 0)
		if len(rows) != len(dse.DisplayBenches) {
			t.Errorf("cap %.0f: %d selection rows", cap, len(rows))
		}
		for _, ch := range rows {
			if ch.Cost > cap {
				t.Errorf("cap %.0f: %s selected cost %.1f", cap, ch.Target, ch.Cost)
			}
		}
	}
}
