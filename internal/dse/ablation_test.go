package dse

import (
	"context"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/ddg"
	"customfit/internal/machine"
	"customfit/internal/opt"
)

func TestAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles every ablation configuration")
	}
	benches := []*bench.Benchmark{bench.ByName("A"), bench.ByName("F")}
	archs := []machine.Arch{
		{ALUs: 8, MULs: 4, Regs: 256, L2Ports: 2, L2Lat: 4, Clusters: 2},
	}
	results, err := RunAblation(context.Background(), benches, archs, 48)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", SummarizeAblation(results))

	by := map[[2]string]AblationResult{}
	for _, r := range results {
		by[[2]string{r.Config, r.Bench}] = r
	}
	// Reassociation's effect is structural: it must shorten the FIR
	// reduction's critical path (on memory-bound machines cycles can
	// coincide, so assert on the dependence graph, not end cycles).
	assertReassociationShortensCriticalPath(t)
	if by[[2]string{"no-reassociation", "A"}].Failed {
		t.Fatal("A without reassociation failed to compile")
	}
	// If-conversion is what lets F's branchy loop body unroll; without
	// it the unroll factor is pinned at 1.
	noIf := by[[2]string{"no-if-conversion", "F"}]
	if !noIf.Failed && noIf.Unroll > 1 {
		t.Errorf("F without if-conversion still unrolled %dx", noIf.Unroll)
	}
	// LICM removal must not change results, only cycles (correctness is
	// covered elsewhere); here assert it compiled.
	if by[[2]string{"no-licm", "A"}].Failed {
		t.Error("A without LICM failed to compile")
	}
}

// assertReassociationShortensCriticalPath compares the loop-body
// critical path of benchmark A at unroll 4 with and without
// reassociation.
func assertReassociationShortensCriticalPath(t *testing.T) {
	t.Helper()
	fn, err := bench.ByName("A").Compile()
	if err != nil {
		t.Fatal(err)
	}
	arch := machine.Arch{ALUs: 8, MULs: 4, Regs: 256, L2Ports: 2, L2Lat: 4, Clusters: 1}
	cp := func(ps opt.Passes) int {
		g := fn.Clone()
		if err := opt.OptimizeSpan(nil, g, ps); err != nil {
			t.Fatal(err)
		}
		if err := opt.UnrollSpan(nil, g, 4, ps); err != nil {
			t.Fatal(err)
		}
		return ddg.Build(g.Loop.Header, arch).CriticalPath()
	}
	with := cp(opt.Passes{})
	without := cp(opt.Passes{NoReassociation: true})
	if with >= without {
		t.Errorf("reassociation did not shorten the critical path: %d vs %d", with, without)
	}
	t.Logf("A unroll-4 loop critical path: %d with reassociation, %d without", with, without)
}
