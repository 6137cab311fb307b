package sched

import (
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
		pg, _ := partitionClone(g, arch, ps) // grows the tables
		allocs = testing.AllocsPerRun(5, func() { partitionClone(g, arch, ps) })
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
