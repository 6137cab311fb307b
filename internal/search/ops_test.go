package search

import (
	"context"
	"testing"

	"customfit/internal/machine"
)

func opsTestSet(t *testing.T) *machine.OpSet {
	t.Helper()
	set, err := machine.ParseOpCatalog([]string{
		"mac/3/2:mul $0 $1;add %0 $2",
		"add_add/3/1:add $0 $1;add %0 $2",
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestNeighborsOpsToggles pins the op axis as single-parameter moves:
// from any point of an op-crossed space, flipping one op in or out is a
// neighbor — including from mask-0 points, whose Arch carries no
// catalog of its own (the space-level catalog supplies it).
func TestNeighborsOpsToggles(t *testing.T) {
	set := opsTestSet(t)
	space := machine.CrossOps(SubLattice(), set, []uint64{0, 1, 2, 3})
	in := map[machine.Arch]bool{}
	for _, a := range space {
		in[a] = true
	}
	base := SubLattice()[0]

	fromPlain := NeighborsOps(base, in, set)
	found := map[uint64]bool{}
	for _, n := range fromPlain {
		if n.Ops.Set == set && n.ALUs == base.ALUs && n.MULs == base.MULs && n.Regs == base.Regs &&
			n.L2Ports == base.L2Ports && n.L2Lat == base.L2Lat && n.Clusters == base.Clusters {
			found[n.Ops.Mask] = true
		}
	}
	if !found[1] || !found[2] {
		t.Fatalf("mask-0 point reaches op masks %v, want single-op toggles 1 and 2", found)
	}

	// From full-mask, toggling an op off (down to a single) must be a
	// move, and so must toggling down to mask 0 from a single.
	full := base.WithOps(set, 3)
	sawDown := false
	for _, n := range NeighborsOps(full, in, set) {
		if n.Ops.Set == set && (n.Ops.Mask == 1 || n.Ops.Mask == 2) {
			sawDown = true
		}
	}
	if !sawDown {
		t.Fatal("full-mask point cannot toggle an op off")
	}
	one := base.WithOps(set, 1)
	sawZero := false
	for _, n := range NeighborsOps(one, in, set) {
		if n.Ops.Empty() && n.ALUs == base.ALUs && n.Clusters == base.Clusters && n.Regs == base.Regs {
			sawZero = true
		}
	}
	if !sawZero {
		t.Fatal("single-op point cannot toggle back to the plain template")
	}

	// A nil catalog must reduce to the classic neighbor set exactly.
	plainOnly := map[machine.Arch]bool{}
	for _, a := range SubLattice() {
		plainOnly[a] = true
	}
	classic := Neighbors(base, plainOnly)
	viaOps := NeighborsOps(base, plainOnly, nil)
	if len(classic) != len(viaOps) {
		t.Fatalf("nil-catalog NeighborsOps has %d moves, Neighbors has %d", len(viaOps), len(classic))
	}
}

// TestSearchFindsOpOptimum gives hill climbing a smooth objective
// whose optimum requires enabling both ops, and checks it matches the
// exhaustive optimum — reachable only through op-toggle moves.
func TestSearchFindsOpOptimum(t *testing.T) {
	set := opsTestSet(t)
	space := machine.CrossOps(SubLattice(), set, []uint64{0, 1, 2, 3})
	obj := func(a machine.Arch) float64 {
		// Gradient on every axis; each enabled op is worth more than any
		// datapath step, so the optimum has mask 3.
		return float64(a.ALUs+a.MULs) + 100*float64(len(a.Ops.Enabled()))
	}
	want := must(ExhaustiveCtx(bg, space, obj, nil))
	if want.Best.Ops.Mask != 3 {
		t.Fatalf("exhaustive optimum %v should enable both ops", want.Best)
	}
	res, err := HillClimbCtx(context.Background(), space, obj, 16, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestScore != want.BestScore {
		t.Fatalf("hill climbing found %v (score %g), exhaustive optimum %v (score %g)",
			res.Best, res.BestScore, want.Best, want.BestScore)
	}
	if res.Best.Ops.Empty() {
		t.Fatalf("hill climbing's best %v never toggled an op on", res.Best)
	}
}
