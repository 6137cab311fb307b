package customfit_test

import (
	"math/rand"
	"slices"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/core"
	"customfit/internal/dse"
	"customfit/internal/dse/dsetest"
	"customfit/internal/machine"
)

// TestShippedCellsRun executes a sample of the shipped results: the
// paper's conclusions rest on results_full.json's cycle counts, which
// the explorer derives without running the scheduled program. For 18
// non-failed cells of each of the eleven benchmarks, drawn with a fixed
// seed, it compiles the kernel for the cell's machine at the stored
// unroll factor, runs it on the reference workload through the physical
// register assignment, and requires the golden model's outputs, the
// stored cycle count and the stored spill count (checkCell). Every cell
// is TestAllShippedCellsRun's, behind `make cells`.
func TestShippedCellsRun(t *testing.T) {
	const perBench = 18
	res := dsetest.Shipped(t)
	if len(res.Benches) != 11 {
		t.Fatalf("shipped results hold %d benchmarks, want 11", len(res.Benches))
	}
	rng := rand.New(rand.NewSource(2026))
	for _, name := range res.Benches {
		b := bench.ByName(name)
		k, err := core.ParseKernel(b.Source)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var cells []int
		for i, ev := range res.Eval[name] {
			if !ev.Failed {
				cells = append(cells, i)
			}
		}
		rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
		for _, i := range cells[:min(perBench, len(cells))] {
			checkCell(t, k, b, res.Eval[name][i])
		}
	}
}

// TestWorstPairRuns runs both cells of the worst pair of
// TestRicherMachinesLose and pins what the simulator says of each run:
// at unroll 1, GF on (8 2 64 4 4 1) spills 18 registers and runs bound
// by the L1 port with 768 stall cycles, while on the poorer
// (8 2 64 4 8 1), with twice the L2 latency, it spills nothing and runs
// ALU-bound without a stall. The richer machine loses to spill traffic.
func TestWorstPairRuns(t *testing.T) {
	res := dsetest.Shipped(t)
	b := bench.ByName("GF")
	k, err := core.ParseKernel(b.Source)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		arch    string
		bound   string
		stalls  int64
		spilled int
	}{
		{"(8 2 64 4 4 1)", "l1", 768, 18},
		{"(8 2 64 4 8 1)", "alu", 0, 0},
	} {
		i := slices.IndexFunc(res.Archs, func(a machine.Arch) bool { return a.String() == want.arch })
		if i < 0 {
			t.Fatalf("%s is not in the shipped results", want.arch)
		}
		ev := res.Eval["GF"][i]
		if ev.Unroll != 1 {
			t.Errorf("GF on %s: stored unroll %d, want 1", want.arch, ev.Unroll)
		}
		st, ok := checkCell(t, k, b, ev)
		if ok && (st.Bound != want.bound || st.StallCycles != want.stalls || ev.Spilled != want.spilled) {
			t.Errorf("GF on %s: %s-bound, %d stall cycles, %d spilled; want %s-bound, %d, %d",
				want.arch, st.Bound, st.StallCycles, ev.Spilled, want.bound, want.stalls, want.spilled)
		}
	}
}

// checkCell runs one shipped cell: it compiles k, benchmark b's kernel,
// for ev's machine at ev's unroll factor, runs it on the reference
// workload through the physical register assignment, and requires the
// golden model's outputs, ev's cycle count and ev's spill count. It
// returns the run's statistics and whether the cell held; a cell that
// does not says why on t.
func checkCell(t *testing.T, k *core.Kernel, b *bench.Benchmark, ev dse.Evaluation) (core.RunStats, bool) {
	c, err := k.Compile(ev.Arch, ev.Unroll)
	if err != nil {
		t.Errorf("%s on %v at unroll %d: %v", b.Name, ev.Arch, ev.Unroll, err)
		return core.RunStats{}, false
	}
	tc := b.NewCase(96, 1)
	want := tc.Golden()
	st, err := c.RunPhysical(tc.Args, tc.Mem)
	if err != nil {
		t.Errorf("%s on %v at unroll %d: %v", b.Name, ev.Arch, ev.Unroll, err)
		return core.RunStats{}, false
	}
	ok := true
	for _, out := range tc.Outputs {
		got, exp := tc.Mem[out], want[out]
		if !slices.Equal(got, exp) {
			at := 0
			for at < min(len(got), len(exp)) && got[at] == exp[at] {
				at++
			}
			t.Errorf("%s on %v at unroll %d: output %s differs from the golden model first at index %d",
				b.Name, ev.Arch, ev.Unroll, out, at)
			ok = false
		}
	}
	if st.Cycles != ev.Cycles {
		t.Errorf("%s on %v at unroll %d: simulated %d cycles, results_full.json holds %d",
			b.Name, ev.Arch, ev.Unroll, st.Cycles, ev.Cycles)
		ok = false
	}
	if c.Spilled != ev.Spilled {
		t.Errorf("%s on %v at unroll %d: compiled with %d registers spilled, results_full.json holds %d",
			b.Name, ev.Arch, ev.Unroll, c.Spilled, ev.Spilled)
		ok = false
	}
	return *st, ok
}
