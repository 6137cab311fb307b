package dse

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/machine"
	"customfit/internal/obs"
	"customfit/internal/sched"
)

// The tests of the sweep's incumbent (sched.Incumbent): a compile whose
// spill loop cannot beat the best program its sweep holds stops, and
// nothing the sweep returns may tell.

// paperMachines are the baseline and the twelve architectures the
// paper's Tables 8-10 select (the list in the root bench_test.go).
func paperMachines() []machine.Arch {
	out := []machine.Arch{machine.Baseline}
	for _, t := range [][6]int{
		{4, 2, 256, 1, 4, 4}, {8, 2, 128, 1, 4, 4}, {8, 2, 128, 1, 8, 4},
		{8, 4, 256, 1, 4, 4}, {8, 2, 256, 1, 4, 4}, {16, 4, 128, 1, 4, 8},
		{16, 4, 256, 2, 4, 8}, {16, 4, 512, 1, 4, 8}, {8, 4, 512, 1, 4, 4},
		{16, 4, 512, 1, 8, 8}, {16, 8, 256, 1, 4, 8}, {8, 2, 256, 1, 8, 4},
	} {
		out = append(out, machine.Arch{ALUs: t[0], MULs: t[1], Regs: t[2], L2Ports: t[3], L2Lat: t[4], Clusters: t[5]})
	}
	return out
}

// exploreColdArchs are the machines of the explore_cold workload's
// grid: the baseline and every second paper machine.
func exploreColdArchs() []machine.Arch {
	all := paperMachines()
	return []machine.Arch{all[0], all[1], all[3], all[5], all[7], all[9], all[11]}
}

// TestSpillFloorAdmissible holds the floor the spill loop compares with
// an incumbent (sched.spillFloor) to the program the loop ends on: every
// floor, taken before each spill round under the reference visits, is
// at most the fitting program's StaticCycles C. A compile handed the
// incumbent C+1 stops at the first floor above C, so it runs to the end
// and returns the unbounded program exactly when every floor of the
// unbounded loop is ≤ C. Every kernel on every paper machine at every
// unroll factor that prepares.
func TestSpillFloorAdmissible(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles 11 kernels × 13 machines × 4 unroll factors")
	}
	if raceEnabled {
		t.Skip("one goroutine's compiles: minutes under the race detector, and no concurrency")
	}
	ev := NewEvaluator()
	sc := sched.NewScratch()
	spilled := 0
	for _, b := range bench.All() {
		for _, u := range UnrollFactors {
			p := ev.prepare(nil, b, u)
			if p.err != nil {
				break
			}
			for _, a := range paperMachines() {
				res, err := sched.CompilePrepared(nil, p.kernel, a, sc)
				if err != nil || res.Iterations == 1 {
					continue // no program to bound, or no spill round
				}
				spilled++
				c := res.Prog.StaticCycles(p.visits)
				inc := sched.Incumbent{Cycles: c + 1, Visits: p.visits}
				got, err := sched.CompileToBeat(nil, p.kernel, a, sc, false, inc)
				if err != nil {
					t.Errorf("%s u=%d on %s: %v (unbounded: %d cycles after %d rounds)", b.Name, u, a, err, c, res.Iterations)
					continue
				}
				if gc := got.Prog.StaticCycles(p.visits); gc != c || got.Spilled != res.Spilled || got.Iterations != res.Iterations {
					t.Errorf("%s u=%d on %s: %d cycles, %d spilled, %d rounds; unbounded %d, %d, %d",
						b.Name, u, a, gc, got.Spilled, got.Iterations, c, res.Spilled, res.Iterations)
				}
			}
		}
	}
	if spilled == 0 {
		t.Fatal("no compile ran a spill round: nothing was checked")
	}
	t.Logf("%d compiles with spill rounds checked", spilled)
}

// sweepUnbounded is runSweep's rule with no incumbent: every compile's
// spill loop runs to its end.
func sweepUnbounded(e *Evaluator, b *bench.Benchmark, arch machine.Arch, sc *sched.Scratch) sweepResult {
	sw := sweepResult{failed: true}
	for _, u := range UnrollFactors {
		p := e.prepare(nil, b, u)
		if p.err != nil {
			break
		}
		res, err := sched.CompilePreparedDelta(nil, p.kernel, arch, sc)
		sw.runs++
		if err != nil {
			break
		}
		if cycles := res.Prog.StaticCycles(p.visits); sw.failed || cycles < sw.cycles {
			sw = sweepResult{unroll: u, cycles: cycles, spilled: res.Spilled, runs: sw.runs}
		}
		if res.Spilled > 0 {
			break
		}
	}
	return sw
}

// TestSweepStopsOnlyLosingLoops runs the explore_cold grid's unroll
// sweeps with their incumbents and without: the same sweep, runs
// included, in every cell, and the compiles stopped (dse.compile_beaten)
// are exactly the cells pinned here — each a spilled compile whose
// program would have lost to the smaller unroll the sweep held.
func TestSweepStopsOnlyLosingLoops(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 77 unroll sweeps twice")
	}
	if raceEnabled {
		t.Skip("one goroutine's sweeps: slow under the race detector, and no concurrency")
	}
	want := []string{
		"A on (16 4 256 2 4 8)",
		"A on (4 2 256 1 4 4)",
		"A on (8 2 256 1 4 4)",
		"A on (8 4 512 1 4 4)",
		"DHEF on (8 2 128 1 8 4)",
		"GEF on (8 2 128 1 8 4)",
	}
	ev := NewEvaluator()
	sc := sched.NewScratch()
	col := obs.NewCollector()
	obs.Install(col)
	defer obs.Install(nil)
	beaten := col.Counter("dse.compile_beaten")
	var stopped []string
	for _, b := range bench.All() {
		for _, a := range exploreColdArchs() {
			before := beaten.Value()
			got := ev.runSweep(context.Background(), nil, b, a, sc)
			if beaten.Value() != before {
				stopped = append(stopped, fmt.Sprintf("%s on %s", b.Name, a))
			}
			if want := sweepUnbounded(ev, b, a, sc); got != want {
				t.Errorf("%s on %s: sweep %+v, unbounded %+v", b.Name, a, got, want)
			}
		}
	}
	slices.Sort(stopped)
	if !slices.Equal(stopped, want) {
		t.Errorf("stopped compiles:\n\t%q\nwant\n\t%q", stopped, want)
	}
}
