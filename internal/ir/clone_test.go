package ir_test

import (
	"testing"

	"customfit/internal/bench"
	"customfit/internal/ir"
	"customfit/internal/opt"
)

// TestCloneAllocatesPerBlock pins Func.Clone's cost model without a
// hand-set number: instructions and operands come out of one slab per
// clone, so unrolling kernel A four times further — the same blocks,
// well over twice the instructions — must not cost one allocation more.
func TestCloneAllocatesPerBlock(t *testing.T) {
	fn, err := bench.ByName("A").Compile()
	if err != nil {
		t.Fatal(err)
	}
	count := func(u int) (float64, *ir.Func) {
		g, err := opt.Prepare(fn, u)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() { g.Clone() }), g
	}
	a2, g2 := count(2)
	a8, g8 := count(8)
	if len(g2.Blocks) != len(g8.Blocks) || g8.NumInstrs() < 2*g2.NumInstrs() {
		t.Fatalf("unroll 2: %d blocks, %d instructions; unroll 8: %d, %d — not the pair the test wants",
			len(g2.Blocks), g2.NumInstrs(), len(g8.Blocks), g8.NumInstrs())
	}
	if a2 != a8 {
		t.Errorf("Clone allocates %v times at unroll 2 and %v at unroll 8: it should depend on blocks alone", a2, a8)
	}
}

// TestSlabCloneKeepsInstrCloneShape holds the slab's copies to what
// Instr.Clone gives: empty Args and Targets stay nil, and the operand
// slices are cut to length, so growing one copies it out of the slab
// instead of writing over the next instruction's operands.
func TestSlabCloneKeepsInstrCloneShape(t *testing.T) {
	f := ir.NewFunc("f")
	entry, exit := f.NewBlock("entry"), f.NewBlock("exit")
	r0, r1 := f.NewReg(), f.NewReg()
	entry.Append(ir.NewInstr(ir.OpMov, r0, ir.Imm(1)))
	entry.Append(ir.NewInstr(ir.OpAdd, r1, ir.R(r0), ir.Imm(2)))
	entry.Append(&ir.Instr{Op: ir.OpBr, Dest: ir.NoReg, Targets: []*ir.Block{exit}})
	exit.Append(&ir.Instr{Op: ir.OpRet, Dest: ir.NoReg, Args: []ir.Operand{}})

	g := f.Clone()
	mov, add, br, ret := g.Blocks[0].Instrs[0], g.Blocks[0].Instrs[1], g.Blocks[0].Instrs[2], g.Blocks[1].Instrs[0]
	if ret.Args != nil || ret.Targets != nil || mov.Targets != nil || br.Args != nil {
		t.Errorf("empty Args/Targets must clone to nil: ret %v %v, mov %v, br %v", ret.Args, ret.Targets, mov.Targets, br.Args)
	}
	if len(br.Targets) != 1 || br.Targets[0] != g.Blocks[1] {
		t.Errorf("branch target not remapped into the clone: %v", br.Targets)
	}
	mov.Args = append(mov.Args, ir.R(r1))
	if add.Args[0] != ir.R(r0) || add.Args[1] != ir.Imm(2) {
		t.Errorf("appending to one clone's Args reached its neighbour: %v", add.Args)
	}
	if f.Blocks[0].Instrs[0].Args[0] != ir.Imm(1) || len(f.Blocks[0].Instrs[0].Args) != 1 {
		t.Errorf("the source changed: %v", f.Blocks[0].Instrs[0].Args)
	}
}

// TestSlabGrowsByWhatItsOwnerExpects drives a slab past its arrays: the
// first array is what Expect announced (so taking exactly that costs one
// allocation per kind), the slab grows on its own account after that,
// and growing never moves or overwrites what was cut before.
func TestSlabGrowsByWhatItsOwnerExpects(t *testing.T) {
	var slab ir.Slab
	slab.Expect(3, 6, 0)
	var made []*ir.Instr
	allocs := testing.AllocsPerRun(1, func() {
		made = made[:0]
		var s ir.Slab
		s.Expect(3, 6, 0)
		for i := 0; i < 3; i++ {
			made = append(made, s.New(ir.OpAdd, ir.Reg(i), ir.R(ir.Reg(i)), ir.Imm(int32(i))))
		}
	})
	if allocs != 2 {
		t.Errorf("three instructions out of a slab told to expect three cost %v allocations, want 2 (instructions, operands)", allocs)
	}
	made = made[:0]
	for i := 0; i < 100; i++ {
		made = append(made, slab.New(ir.OpAdd, ir.Reg(i), ir.R(ir.Reg(i)), ir.Imm(int32(i))))
	}
	ret := slab.New(ir.OpRet, ir.NoReg)
	if ret.Args != nil || ret.Dest != ir.NoReg {
		t.Errorf("an instruction without operands: Args %v, Dest %v", ret.Args, ret.Dest)
	}
	made[0].Args = append(made[0].Args, ir.Imm(7))
	for i, in := range made {
		want := []ir.Operand{ir.R(ir.Reg(i)), ir.Imm(int32(i))}
		if i == 0 {
			want = append(want, ir.Imm(7))
		}
		if in.Op != ir.OpAdd || in.Dest != ir.Reg(i) || len(in.Args) != len(want) {
			t.Fatalf("instruction %d changed while the slab grew: %v", i, in)
		}
		for j := range want {
			if in.Args[j] != want[j] {
				t.Fatalf("instruction %d changed while the slab grew: %v", i, in)
			}
		}
	}
}
