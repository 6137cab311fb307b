package sched

import (
	"runtime"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/opt"
)

// prepareA returns kernel A (the 7x7 FIR) optimized and unrolled by u.
func prepareA(t *testing.T, u int) *ir.Func {
	t.Helper()
	fn, err := bench.ByName("A").Compile()
	if err != nil {
		t.Fatal(err)
	}
	g, err := opt.Prepare(fn, u)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPartitionCloneAllocatesPerBlock pins the partitioner's side of
// the ownership rule without a hand-set number: with warm tables the
// clone's instructions and inserted moves come out of slabs and the
// working tables out of the arena, so what is left is per function and
// per block — well over twice the instructions and inserted moves must
// not cost one allocation more.
func TestPartitionCloneAllocatesPerBlock(t *testing.T) {
	arch := machine.Arch{ALUs: 16, MULs: 4, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 8}
	ps := new(partScratch)
	count := func(u int) (allocs float64, instrs, moves int) {
		g := prepareA(t, u)
		pg, _ := partitionClone(g, arch, ps, nil) // grows the tables
		allocs = testing.AllocsPerRun(5, func() { partitionClone(g, arch, ps, nil) })
		return allocs, g.NumInstrs(), pg.NumInstrs() - g.NumInstrs()
	}
	a8, n8, m8 := count(8) // the larger first, so neither run grows the arena
	a2, n2, m2 := count(2)
	if n8 < 2*n2 || m8 < 2*m2 || m2 == 0 {
		t.Fatalf("unroll 2: %d instructions, %d moves; unroll 8: %d, %d — not the pair the test wants", n2, m2, n8, m8)
	}
	if a2 != a8 {
		t.Errorf("PartitionClone allocates %v times at unroll 2 (%d instructions) and %v at unroll 8 (%d): it should depend on blocks alone", a2, n2, a8, n8)
	}
}

// mallocs counts the heap objects one call of f makes.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestClassCopiesKernelOnce pins what building a partition class costs
// on a clustered machine with no ISA rewrite: partitionClone copies the
// kernel and only reads it, so the class is that one copy, its liveness
// and its skeleton set — no lowered copy in front of it. The first delta
// compile of a fresh Prepared builds the class; a neighbour in the same
// class whose blocks all miss the ring repeats the rest of the work, so
// the difference is the build, and must come in well under one more
// copy of the kernel.
func TestClassCopiesKernelOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation accounting")
	}
	g := prepareA(t, 2)
	arch := testArchs[5] // four clusters, no custom ops, no min/max, no spill
	neighbour := arch
	neighbour.ALUs = 8
	sc := NewScratch()
	first, again := ^uint64(0), ^uint64(0)
	for range 3 {
		prep := NewPrepared(g)
		first = min(first, mallocs(func() { CompilePreparedDelta(nil, prep, arch, sc) }))
		again = min(again, mallocs(func() { CompilePreparedDelta(nil, prep, neighbour, sc) }))
	}
	pg, _ := partitionClone(g, arch, &sc.part, nil)
	build := testing.AllocsPerRun(3, func() { partitionClone(g, arch, &sc.part, nil) }) +
		testing.AllocsPerRun(3, func() { opt.ComputeLiveness(pg) }) +
		testing.AllocsPerRun(3, func() { new(skelCache).get(pg, arch, &sc.skel) })
	clone := testing.AllocsPerRun(3, func() { g.Clone() })
	if got := float64(first - again); got > build+clone/2 {
		t.Errorf("building the class makes %v objects: the partitioned copy, its liveness and skeletons are %v, a second copy of the kernel %v more",
			got, build, clone)
	}
}

// TestCompileSpanClonesNoSkeletonSet pins the one-shot compile's class:
// built for the one compile and dropped with it, so its blocks are
// scheduled from the arena's builder and no skeleton set is cloned for a
// cache nobody will read. Beside a compile whose class is kept and
// built, CompileSpan does the same work plus the build, and must come in
// well under the build plus a skeleton set.
func TestCompileSpanClonesNoSkeletonSet(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation accounting")
	}
	g := prepareA(t, 2)
	arch := testArchs[5]
	arch.Clusters = 1 // no spill round either: the kept class's would clone its copy
	kept := NewPrepared(g)
	span := testing.AllocsPerRun(3, func() { CompileSpan(nil, g, arch) })
	again := testing.AllocsPerRun(3, func() { CompilePrepared(nil, kept, arch, nil) })
	sc := NewScratch()
	build := testing.AllocsPerRun(3, func() { new(classState).build(g, arch, sc, false) })
	set := testing.AllocsPerRun(3, func() { new(skelCache).get(g, arch, &sc.skel) })
	if span-again > build+set/2 {
		t.Errorf("CompileSpan makes %v objects, a compile of a kept class %v and building the class %v: a skeleton set (%v) is cloned for nobody",
			span, again, build, set)
	}
}

// starvedCell is BenchmarkEvaluateStarved's first machine: two clusters
// of 32 registers, on which kernel A spills at every unroll factor.
var starvedCell = machine.Arch{ALUs: 2, MULs: 1, Regs: 64, L2Ports: 1, L2Lat: 2, Clusters: 2}

// TestSpillRoundAllocatesConstant pins the round memory on
// BenchmarkEvaluateStarved's cell: a spill round after the first cuts
// what it builds — the partitioned clone with its blocks, lists and
// moves, its register homes and liveness, every block's schedule, the
// block and blame tables, the allocation — from the Scratch, so once the
// arena has grown a round allocates a constant number of objects, none
// today, the same for kernel A unrolled twice as for A as it is, which
// has less than half its instructions.
func TestSpillRoundAllocatesConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation accounting")
	}
	const most = 0
	sc := NewScratch()
	count := func(u int) (allocs float64, instrs int) {
		work := lowerFor(prepareA(t, u), starvedCell)
		budget := Variant{}.liveBudget(starvedCell)
		if _, err := runRound(nil, starvedCell, sc, work, 2, budget); err != nil { // grows the arena
			t.Fatal(err)
		}
		allocs = testing.AllocsPerRun(5, func() { runRound(nil, starvedCell, sc, work, 2, budget) })
		return allocs, work.NumInstrs()
	}
	a2, n2 := count(2) // the larger first, so neither run grows the arena
	a1, n1 := count(1)
	if n2 < 2*n1 {
		t.Fatalf("unroll 1: %d instructions, unroll 2: %d — not the pair the test wants", n1, n2)
	}
	if a1 != a2 || a2 > most {
		t.Errorf("a spill round allocates %v objects on %d instructions and %v on %d: want the same, at most %d",
			a1, n1, a2, n2, most)
	}
	t.Logf("%v allocations per spill round", a2)
}
