package customfit_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/dse"
	"customfit/internal/dse/dsetest"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/opt"
	"customfit/internal/sched"
	"customfit/internal/sim"
)

// TestShippedCellsRun executes a sample of the shipped results: the
// paper's conclusions rest on results_full.json's cycle counts, which
// the explorer derives without running the scheduled program. For 18
// non-failed cells of each of the eleven benchmarks, drawn with a fixed
// seed, it compiles the kernel for the cell's machine at the stored
// unroll factor, runs it on the reference workload through the physical
// register assignment, and holds the run to the golden model's outputs,
// the stored cycles and spills, and the profile of the explorer's block
// visits, no occupancy above 1; and it runs the same schedule at every shorter L2 latency of
// the space (checkCell). Every cell is TestAllShippedCellsRun's, behind
// `make cells`.
func TestShippedCellsRun(t *testing.T) {
	const perBench = 18
	res := dsetest.Shipped(t)
	if len(res.Benches) != 11 {
		t.Fatalf("shipped results hold %d benchmarks, want 11", len(res.Benches))
	}
	rng := rand.New(rand.NewSource(2026))
	for _, name := range res.Benches {
		b := bench.ByName(name)
		fn, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		var cells []int
		for i, ev := range res.Eval[name] {
			if !ev.Failed {
				cells = append(cells, i)
			}
		}
		rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
		for _, i := range cells[:min(perBench, len(cells))] {
			checkCell(t, fn, b, res.Eval[name][i], sched.Variant{})
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
	fn, err := b.Compile()
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
		st, ok := checkCell(t, fn, b, ev, sched.Variant{})
		if ok && (st.Bound != want.bound || st.StallCycles != want.stalls || ev.Spilled != want.spilled) {
			t.Errorf("GF on %s: %s-bound, %d stall cycles, %d spilled; want %s-bound, %d, %d",
				want.arch, st.Bound, st.StallCycles, ev.Spilled, want.bound, want.stalls, want.spilled)
		}
	}
}

// l2Lats are the design space's L2 latencies.
var l2Lats = sync.OnceValue(func() []int {
	var lats []int
	for _, a := range machine.FullSpace() {
		if !slices.Contains(lats, a.L2Lat) {
			lats = append(lats, a.L2Lat)
		}
	}
	return lats
})

// checkCell runs one explored cell under backend variant v: it prepares
// fn, benchmark b's kernel, at ev's unroll factor, counts its block
// visits on the reference workload with the interpreter as the explorer
// does, compiles and validates it for ev's machine, and runs it through
// the physical register assignment. The zero variant, a shipped cell,
// goes through the one-shot path a compile request takes (opt.Prepare,
// sched.Compile); any other is prepared under v's passes and compiled
// through a sched.Prepared carrying v, the explorer's path. The run
// must give the golden model's outputs, ev's cycles and spills, and
// Stats equal field by field to sim.Profile of the schedule and the
// interpreter's visits: the explorer's premise that the interpreter's
// visits are the simulator's; and no occupancy above 1, which would
// mean the profile divides by less than the schedule may use.
// Then the same schedule runs at every shorter L2 latency of the space,
// with loads landing and L2 ports freeing that much sooner, and must
// give the golden outputs in the same cycles: whether the edge of the
// space along l2 is bounded by compiling for the longer latency. It
// returns the run's Stats and whether the cell held; a cell that does
// not says why on t.
func checkCell(t *testing.T, fn *ir.Func, b *bench.Benchmark, ev dse.Evaluation, v sched.Variant) (*sim.Stats, bool) {
	what := fmt.Sprintf("%s on %v at unroll %d", b.Name, ev.Arch, ev.Unroll)
	shipped := v == (sched.Variant{})
	if !shipped {
		what += fmt.Sprintf(" under %+v", v)
	}
	var prepared *ir.Func
	var err error
	if shipped {
		prepared, err = opt.Prepare(fn, ev.Unroll)
	} else {
		prepared = fn.Clone()
		if err = opt.OptimizeSpan(nil, prepared, v.Passes); err == nil {
			err = opt.UnrollSpan(nil, prepared, ev.Unroll, v.Passes)
		}
	}
	if err != nil {
		t.Errorf("%s: %v", what, err)
		return nil, false
	}
	tc := b.NewCase(96, 1)
	want := tc.Golden()
	ref := tc.Clone().Env()
	ref.Visits = map[string]int64{}
	if _, err := ir.Interp(prepared, ref); err != nil {
		t.Errorf("%s: reference run: %v", what, err)
		return nil, false
	}
	var res *sched.Result
	if shipped {
		res, err = sched.Compile(prepared, ev.Arch)
	} else {
		res, err = sched.CompilePrepared(nil, &sched.Prepared{F: prepared, Variant: v}, ev.Arch, nil)
	}
	if err == nil {
		err = sched.Validate(res.Prog)
	}
	if err != nil {
		t.Errorf("%s: %v", what, err)
		return nil, false
	}
	st, err := sim.RunPhysical(res.Prog, tc.Env())
	if err != nil {
		t.Errorf("%s: %v", what, err)
		return nil, false
	}
	ok := goldenOutputs(t, what, tc, want)
	if st.Cycles != ev.Cycles {
		t.Errorf("%s: simulated %d cycles, the explorer found %d", what, st.Cycles, ev.Cycles)
		ok = false
	}
	if res.Spilled != ev.Spilled {
		t.Errorf("%s: compiled with %d registers spilled, the explorer found %d", what, res.Spilled, ev.Spilled)
		ok = false
	}
	if prof := sim.Profile(res.Prog, ref.Visits); !reflect.DeepEqual(prof, st) {
		t.Errorf("%s: the run's Stats are not the profile of the interpreter's visits\nrun     %+v\nprofile %+v", what, st, prof)
		ok = false
	}
	for _, o := range [...]struct {
		name string
		occ  float64
	}{{"ALU", st.ALUOcc}, {"MUL", st.MULOcc}, {"L1", st.L1Occ}, {"L2", st.L2Occ}, {"CU", st.CUOcc}} {
		if o.occ > 1 {
			t.Errorf("%s: %s occupancy %g: the run keeps busy more than the machine holds", what, o.name, o.occ)
			ok = false
		}
	}
	for _, l2 := range l2Lats() {
		if l2 >= ev.Arch.L2Lat {
			continue
		}
		short := *res.Prog
		short.Arch.L2Lat = l2
		tc := b.NewCase(96, 1)
		sst, err := sim.RunPhysical(&short, tc.Env())
		switch {
		case err != nil:
			t.Errorf("%s, run at L2 latency %d: %v", what, l2, err)
			ok = false
		case !goldenOutputs(t, fmt.Sprintf("%s, run at L2 latency %d", what, l2), tc, want):
			ok = false
		case sst.Cycles != ev.Cycles:
			t.Errorf("%s, run at L2 latency %d: %d cycles, want %d", what, l2, sst.Cycles, ev.Cycles)
			ok = false
		}
	}
	return st, ok
}

// goldenOutputs reports whether tc's outputs are want's, and where the
// first that is not differs on t.
func goldenOutputs(t *testing.T, what string, tc *bench.Case, want map[string][]int32) bool {
	ok := true
	for _, out := range tc.Outputs {
		got, exp := tc.Mem[out], want[out]
		if !slices.Equal(got, exp) {
			at := 0
			for at < min(len(got), len(exp)) && got[at] == exp[at] {
				at++
			}
			t.Errorf("%s: output %s differs from the golden model first at index %d", what, out, at)
			ok = false
		}
	}
	return ok
}
