package sched

import (
	"slices"
	"strings"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/cc"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/opt"
)

// TestLowerBoundAdmissible is the load-bearing property of the search
// pruning layer: for every block of every (kernel, unroll,
// architecture) combination, the no-compile bound must not exceed the
// cycles the real backend schedule spends per execution of that block
// — including schedules lengthened by spill code.
func TestLowerBoundAdmissible(t *testing.T) {
	fn, err := cc.CompileKernel(pipeSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int{1, 2, 4} {
		g, err := opt.Prepare(fn, u)
		if err != nil {
			t.Fatalf("Prepare(u=%d): %v", u, err)
		}
		prep := NewPrepared(g)
		for _, arch := range testArchs {
			lbs := LowerBound(prep, arch)
			if len(lbs) != len(g.Blocks) {
				t.Fatalf("u=%d %s: %d bounds for %d blocks", u, arch, len(lbs), len(g.Blocks))
			}
			res, err := CompilePrepared(nil, prep, arch, nil)
			if err != nil {
				continue // ErrNoFit etc: nothing to compare against
			}
			byName := map[string]int{}
			for _, sb := range res.Prog.Blocks {
				byName[sb.IR.Name] = sb.Len
			}
			for i, b := range g.Blocks {
				got, ok := byName[b.Name]
				if !ok {
					continue
				}
				if lbs[i] > got {
					t.Errorf("u=%d %s block %s: bound %d exceeds real schedule %d (inadmissible)",
						u, arch, b.Name, lbs[i], got)
				}
				if len(b.Instrs) > 0 && lbs[i] < 1 {
					t.Errorf("u=%d %s block %s: bound %d for nonempty block", u, arch, b.Name, lbs[i])
				}
			}
		}
	}
}

// TestLowerBoundTightOnWideMachines sanity-checks the bound is not
// vacuous: on the baseline 1-wide machine the resource terms must bite
// (bound well above 1 for the loop body), and bounds must not increase
// as the machine gets strictly more parallel at fixed latency.
func TestLowerBoundTightOnWideMachines(t *testing.T) {
	fn, err := cc.CompileKernel(pipeSrc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := opt.Prepare(fn, 1)
	if err != nil {
		t.Fatal(err)
	}
	prep := NewPrepared(g)
	narrow := testArchs[0] // baseline
	wide := narrow
	wide.ALUs, wide.MULs, wide.Regs, wide.L2Ports = 16, 8, 512, 4
	nb := LowerBound(prep, narrow)
	wb := LowerBound(prep, wide)
	sumN, sumW := 0, 0
	for i := range nb {
		sumN += nb[i]
		sumW += wb[i]
		if wb[i] > nb[i] {
			t.Errorf("block %d: bound grew from %d to %d with strictly more resources",
				i, nb[i], wb[i])
		}
	}
	if sumN <= sumW {
		t.Errorf("narrow bound %d not above wide bound %d: resource terms never bite", sumN, sumW)
	}
}

// TestLowerBoundAbstainsOnRewrittenISA: the bound counts the pristine
// blocks, so it is offered for every machine whose blocks the backend
// schedules as they are and for none whose instruction set it rewrites
// first — min/max fusion, custom ops — where it would not be admissible.
func TestLowerBoundAbstainsOnRewrittenISA(t *testing.T) {
	prep := NewPrepared(preparePipe(t, 2))
	set, err := machine.ParseOpCatalog([]string{"mac/3/2:mul $0 $1;add %0 $2"})
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range testArchs {
		if lbs := LowerBound(prep, arch); len(lbs) != len(prep.F.Blocks) {
			t.Errorf("%s: %d bounds for %d blocks", arch, len(lbs), len(prep.F.Blocks))
		}
		for _, rewritten := range []machine.Arch{arch.WithMinMax(), arch.WithOps(set, set.FullMask())} {
			if lbs := LowerBound(prep, rewritten); lbs != nil {
				t.Errorf("%s (min/max %v, ops %q): bounds %v for blocks the backend rewrites",
					rewritten, rewritten.MinMax, rewritten.Ops.Key(), lbs)
			}
		}
	}
}

func TestFingerprintStableAndDescriptive(t *testing.T) {
	a, b := Fingerprint(), Fingerprint()
	if a != b {
		t.Fatalf("fingerprint not deterministic: %q vs %q", a, b)
	}
	for _, want := range []string{"backend-v", "lat(", "spill="} {
		if !strings.Contains(a, want) {
			t.Errorf("fingerprint %q missing %q", a, want)
		}
	}
}

// TestLowerBoundPinsItsTerms pins the floor's values, block by block,
// where different terms bind: pipe at unroll 1 on two machines with an
// L2 latency of 8. On the baseline, the loop's five L2 accesses each
// hold the one port for 8 cycles, so the L2 term (5 × 8 / 1 = 40) binds,
// above the critical path (24) and the ALU term (16); the entry block
// is its 7 ALU operations on one ALU, the exit its branch. With two L2
// ports and four ALUs the L2 term falls to 20 and the loop's critical
// path binds; the entry block's critical path and its four accesses to
// the one L1 port tie at 4. A floor that dropped
// the port hold, or a capacity, would read lower here and nowhere be
// caught by admissibility alone.
func TestLowerBoundPinsItsTerms(t *testing.T) {
	prep := NewPrepared(preparePipe(t, 1))
	for _, tc := range []struct {
		arch machine.Arch
		want []int
	}{
		{machine.Baseline, []int{7, 40, 1}},
		{machine.Arch{ALUs: 4, MULs: 2, Regs: 128, L2Ports: 2, L2Lat: 8, Clusters: 1}, []int{4, 24, 1}},
	} {
		if got := LowerBound(prep, tc.arch); !slices.Equal(got, tc.want) {
			t.Errorf("%s: floors %v, want %v", tc.arch, got, tc.want)
		}
	}
	// The loop's terms on the baseline, as the floor reads them.
	pristine := prep.class(machine.Arch{Clusters: 1}, nil)
	k := machine.Baseline.Capacity()
	loop := pristine.blocks[1].info
	if l2 := loop[machine.L2] * k.Hold[machine.L2] / k.Machine[machine.L2]; l2 != 40 || loop[machine.ALU] != 16 {
		t.Errorf("loop: L2 term %d, ALU term %d; want 40 and 16", l2, loop[machine.ALU])
	}
	if cp := pristine.skels.get(pristine.g, machine.Baseline, nil)[1].CriticalPath(); cp != 24 {
		t.Errorf("loop: critical path %d, want 24", cp)
	}
}

// TestSpillFloorOnlyRises holds spillFloor to the reason it may end a
// spill loop: no rewrite of a later round lowers it, in any block. Every
// kernel's rematerializable constant loads are spilled (the one rewrite
// that drops an instruction), then a fifth of its registers a round
// beside them, and each block's floor, weighted by its own visit alone,
// must not fall.
func TestSpillFloorOnlyRises(t *testing.T) {
	arch := machine.Arch{ALUs: 4, MULs: 2, Regs: 64, L2Ports: 1, L2Lat: 4, Clusters: 2}
	works := []*ir.Func{hoistedTable()}
	for _, b := range bench.All() {
		fn, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		work, err := opt.Prepare(fn, 2)
		if err != nil {
			t.Fatal(err)
		}
		works = append(works, work)
	}
	for _, work := range works {
		floors := func() []int64 {
			out := make([]int64, len(work.Blocks))
			for i, blk := range work.Blocks {
				out[i] = spillFloor(work, arch, map[string]int64{blk.Name: 1})
			}
			return out
		}
		for round := 0; round < 4; round++ {
			var victims []ir.Reg
			for _, blk := range work.Blocks {
				for _, in := range blk.Instrs {
					if in.Op == ir.OpLoad && in.Mem.Const && in.Args[0].IsImm() && !slices.Contains(victims, in.Dest) {
						victims = append(victims, in.Dest)
					}
				}
			}
			// The first round rematerializes alone: stores spilled beside
			// it would hide a floor that counted the loads it drops.
			for r := ir.Reg(round); round > 0 && int(r) < work.NumRegs(); r += 5 {
				if !slices.Contains(victims, r) {
					victims = append(victims, r)
				}
			}
			before := floors()
			SpillRewrite(work, victims)
			for i, f := range floors() {
				if f < before[i] {
					t.Errorf("%s round %d block %s: floor %d fell from %d", work.Name, round, work.Blocks[i].Name, f, before[i])
				}
			}
		}
	}
}

// hoistedTable is two constant-table loads in an entry block, used in
// the next: rematerializing them empties the entry of loads. (The
// benchmarks' hoisted loads feed copies in their own block, so a
// rewrite only moves them within it.)
func hoistedTable() *ir.Func {
	f := ir.NewFunc("hoisted")
	tab := f.AddMem(&ir.MemRef{Name: "tab", Space: ir.L1, Elem: ir.ElemI32, Size: 2, Const: true})
	entry, body := f.NewBlock("entry"), f.NewBlock("body")
	var loads []ir.Reg
	for i := range 2 {
		r := f.NewReg()
		entry.Append(&ir.Instr{Op: ir.OpLoad, Dest: r, Args: []ir.Operand{ir.Imm(int32(i))}, Mem: tab, Elem: ir.ElemI32})
		loads = append(loads, r)
	}
	entry.Append(&ir.Instr{Op: ir.OpBr, Dest: ir.NoReg, Targets: []*ir.Block{body}})
	body.Append(ir.NewInstr(ir.OpAdd, f.NewReg(), ir.R(loads[0]), ir.R(loads[1])))
	body.Append(&ir.Instr{Op: ir.OpRet, Dest: ir.NoReg})
	return f
}
