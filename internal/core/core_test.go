package core

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/machine"
	"customfit/internal/search"
)

const coreSrc = `
	kernel double(int in[], int out[], int n) {
		int i;
		for (i = 0; i < n; i++) { out[i] = in[i] * 2; }
	}`

func TestParseCompileRun(t *testing.T) {
	k, err := ParseKernel(coreSrc)
	if err != nil {
		t.Fatal(err)
	}
	if k.Name != "double" {
		t.Errorf("Name = %q", k.Name)
	}
	if !strings.Contains(k.IR(), "kernel double") {
		t.Error("IR dump missing header")
	}
	c, err := k.Compile(machine.Arch{ALUs: 4, MULs: 2, Regs: 128, L2Ports: 2, L2Lat: 4, Clusters: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.Assembly(), "bundles") {
		t.Error("assembly missing header")
	}
	in := []int32{1, 2, 3, 4, 5}
	out := make([]int32, 5)
	st, err := c.Run([]int32{5}, map[string][]int32{"in": in, "out": out})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range in {
		if out[i] != 2*v {
			t.Errorf("out[%d] = %d, want %d", i, out[i], 2*v)
		}
	}
	if st.Cycles <= 0 || st.Time < float64(st.Cycles) {
		t.Errorf("stats wrong: %+v", st)
	}
}

func TestCompileRejectsInvalidArch(t *testing.T) {
	k, _ := ParseKernel(coreSrc)
	if _, err := k.Compile(machine.Arch{ALUs: 3, MULs: 1, Regs: 64, L2Ports: 1, L2Lat: 4, Clusters: 2}, 1); err == nil {
		t.Error("invalid architecture accepted")
	}
}

func TestInterpretAgreesWithRun(t *testing.T) {
	k, _ := ParseKernel(coreSrc)
	in := []int32{7, 8, 9}
	ref := make([]int32, 3)
	if err := k.Interpret([]int32{3}, map[string][]int32{"in": in, "out": ref}); err != nil {
		t.Fatal(err)
	}
	c, err := k.Compile(machine.Baseline, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int32, 3)
	if _, err := c.Run([]int32{3}, map[string][]int32{"in": in, "out": got}); err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Errorf("out[%d]: interp %d vs sim %d", i, ref[i], got[i])
		}
	}
}

func TestCustomFitCtxPicksWithinBudget(t *testing.T) {
	space := []machine.Arch{
		machine.Baseline,
		{ALUs: 4, MULs: 2, Regs: 128, L2Ports: 2, L2Lat: 4, Clusters: 2},
		{ALUs: 8, MULs: 4, Regs: 256, L2Ports: 4, L2Lat: 2, Clusters: 2},
		{ALUs: 16, MULs: 8, Regs: 512, L2Ports: 4, L2Lat: 2, Clusters: 2},
	}
	d := bench.ByName("D")
	opts := FitOptions{Benchmarks: []*bench.Benchmark{d}, CostCap: 8, Archs: space}
	fit, err := CustomFitCtx(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Cost > 8 {
		t.Errorf("selected cost %.2f over budget", fit.Cost)
	}
	if fit.Speedups["D"] < 1 {
		t.Errorf("fit speedup %.2f < 1", fit.Speedups["D"])
	}
	// An absurdly small budget must fail cleanly.
	opts.CostCap = 0.1
	if _, err := CustomFitCtx(context.Background(), opts); err == nil {
		t.Error("impossible budget accepted")
	}
}

func TestRunPhysicalMatchesRun(t *testing.T) {
	k, _ := ParseKernel(coreSrc)
	c, err := k.Compile(machine.Arch{ALUs: 8, MULs: 4, Regs: 256, L2Ports: 2, L2Lat: 4, Clusters: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := []int32{3, 1, 4, 1, 5, 9, 2, 6}
	a := make([]int32, 8)
	b := make([]int32, 8)
	s1, err := c.Run([]int32{8}, map[string][]int32{"in": in, "out": a})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.RunPhysical([]int32{8}, map[string][]int32{"in": in, "out": b})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("out[%d]: virtual %d vs physical %d", i, a[i], b[i])
		}
	}
	if s1.Cycles != s2.Cycles {
		t.Errorf("cycles differ: %d vs %d", s1.Cycles, s2.Cycles)
	}
}

// TestExploreGrid pins the one grid rule (machine.Grid, reached through
// ExploreOptions the way every entry point reaches it): nil means the
// full space, sampling keeps the baseline exactly once, an op catalog
// doubles the grid in CrossOps order, and ExactArchs bypasses all of it.
func TestExploreGrid(t *testing.T) {
	ops, err := machine.ParseOpCatalog([]string{"mac/3/2:mul $0 $1;add %0 $2"})
	if err != nil {
		t.Fatal(err)
	}
	full := machine.FullSpace()
	var every8 []machine.Arch
	for i := 0; i < len(full); i += 8 {
		every8 = append(every8, full[i])
	}
	noBaseline := []machine.Arch{full[0], full[1]}
	for _, a := range append(every8, noBaseline...) {
		if a == machine.Baseline {
			t.Fatal("fixture: the baseline must not survive thinning by itself")
		}
	}
	baselineFirst := append([]machine.Arch{machine.Baseline}, noBaseline...)
	sampled := append(append([]machine.Arch(nil), every8...), machine.Baseline)
	for _, tc := range []struct {
		name string
		opts ExploreOptions
		want []machine.Arch
	}{
		{"nil space is the full space", ExploreOptions{}, full},
		{"sample 8 appends the baseline", ExploreOptions{Sample: 8}, sampled},
		{"a baseline already present is not repeated", ExploreOptions{Archs: baselineFirst}, baselineFirst},
		{"an op catalog doubles the grid", ExploreOptions{Sample: 8, Ops: ops},
			machine.CrossOps(sampled, ops, machine.DefaultMasks(ops))},
		{"ExactArchs is verbatim", ExploreOptions{Archs: noBaseline, ExactArchs: true, Sample: 2, Ops: ops}, noBaseline},
	} {
		got := tc.opts.resolveArchs()
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d machines, want %d", tc.name, len(got), len(tc.want))
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: machine %d is %v, want %v", tc.name, i, got[i], tc.want[i])
				break
			}
		}
	}
	if n := len(machine.CrossOps(sampled, ops, machine.DefaultMasks(ops))); n != 2*len(sampled) {
		t.Errorf("fixture: crossed grid has %d machines, want %d", n, 2*len(sampled))
	}
}

// TestSearchCompareReportsCacheFlushFailure: a cache SearchCompare
// opened from CacheDir is its own to close, and a failed flush is the
// comparison's error, not a silent loss of every sweep it computed.
func TestSearchCompareReportsCacheFlushFailure(t *testing.T) {
	dir := t.TempDir()
	// A directory squatting on the shard's file name makes the flush's
	// final rename fail.
	if err := os.Mkdir(filepath.Join(dir, "G.jsonl"), 0o755); err != nil {
		t.Fatal(err)
	}
	_, err := SearchCompare(context.Background(), SearchOptions{
		Benchmark: bench.ByName("G"),
		CostCap:   10,
		Space:     []machine.Arch{machine.Baseline, {ALUs: 2, MULs: 1, Regs: 64, L2Ports: 1, L2Lat: 4, Clusters: 1}},
		Width:     32,
		CacheDir:  dir,
	})
	if err == nil || !strings.Contains(err.Error(), "flush") {
		t.Errorf("SearchCompare over an unflushable CacheDir returned %v, want the flush error", err)
	}
}

// TestSearchCompareDefaultSpaceMoves: on the default space, the whole
// search sub-lattice, the local strategies find neighbours to move to.
// Hill climbing spends more evaluations than its four restarts (a
// strided sample of the lattice leaves it only its starting points),
// and every strategy ends on a feasible member of the lattice.
func TestSearchCompareDefaultSpaceMoves(t *testing.T) {
	results, err := SearchCompare(context.Background(), SearchOptions{
		Benchmark: bench.ByName("G"),
		CostCap:   10,
		Width:     32,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	lattice := map[machine.Arch]bool{}
	for _, a := range search.SubLattice() {
		lattice[a] = true
	}
	for _, r := range results {
		if r.Strategy == "hill-climb" && r.Evaluations <= 4 {
			t.Errorf("hill climbing made %d evaluations, no more than its 4 restarts: it never moved", r.Evaluations)
		}
		if !lattice[r.Best] || math.IsInf(r.BestScore, 0) || math.IsNaN(r.BestScore) {
			t.Errorf("%s ended on %s scoring %v, want a sub-lattice member with a finite score", r.Strategy, r.Best, r.BestScore)
		}
	}
}
