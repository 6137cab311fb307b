package ddg

import (
	"math/rand"
	"testing"

	"customfit/internal/ir"
	"customfit/internal/machine"
)

// block builds a basic block from instructions, appending a Ret.
func block(ins ...*ir.Instr) *ir.Block {
	b := &ir.Block{Name: "b"}
	b.Instrs = append(b.Instrs, ins...)
	b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.OpRet, Dest: ir.NoReg})
	return b
}

func edgeBetween(g *Graph, from, to int) (int, bool) {
	for _, e := range g.Nodes[from].Succs {
		if e.To == g.Nodes[to] {
			return e.MinDelta, true
		}
	}
	return 0, false
}

func TestTrueDependenceCarriesLatency(t *testing.T) {
	arch := machine.Baseline
	b := block(
		ir.NewInstr(ir.OpMul, 1, ir.R(0), ir.Imm(3)), // lat 2
		ir.NewInstr(ir.OpAdd, 2, ir.R(1), ir.Imm(1)),
	)
	g := Build(b, arch)
	d, ok := edgeBetween(g, 0, 1)
	if !ok || d != machine.LatMUL {
		t.Errorf("mul->add edge = %d,%v, want %d", d, ok, machine.LatMUL)
	}
}

func TestAntiDependenceZeroDelta(t *testing.T) {
	b := block(
		ir.NewInstr(ir.OpAdd, 1, ir.R(0), ir.Imm(1)), // uses r0
		ir.NewInstr(ir.OpMov, 0, ir.Imm(9)),          // redefines r0
	)
	g := Build(b, machine.Baseline)
	d, ok := edgeBetween(g, 0, 1)
	if !ok || d != 0 {
		t.Errorf("anti edge = %d,%v, want 0,true", d, ok)
	}
}

func TestMemoryDisambiguation(t *testing.T) {
	m := &ir.MemRef{Name: "a", Space: ir.L2, Elem: ir.ElemI32, Size: 64}
	other := &ir.MemRef{Name: "b", Space: ir.L2, Elem: ir.ElemI32, Size: 64}
	st := func(mem *ir.MemRef, base ir.Reg, off int32) *ir.Instr {
		return &ir.Instr{Op: ir.OpStore, Dest: ir.NoReg,
			Args: []ir.Operand{ir.R(base), ir.Imm(0)}, Mem: mem, Off: off, Elem: ir.ElemI32}
	}
	ld := func(mem *ir.MemRef, base ir.Reg, off int32, dst ir.Reg) *ir.Instr {
		return &ir.Instr{Op: ir.OpLoad, Dest: dst,
			Args: []ir.Operand{ir.R(base)}, Mem: mem, Off: off, Elem: ir.ElemI32}
	}
	cases := []struct {
		name string
		a, b *ir.Instr
		dep  bool
	}{
		{"store-load same base same off", st(m, 0, 4), ld(m, 0, 4, 1), true},
		{"store-load same base diff off", st(m, 0, 4), ld(m, 0, 5, 1), false},
		{"store-load diff base", st(m, 0, 4), ld(m, 2, 4, 1), true}, // conservative
		{"store-load diff array", st(m, 0, 4), ld(other, 0, 4, 1), false},
		{"store-store same base same off", st(m, 0, 4), st(m, 0, 4), true},
		{"load-load", ld(m, 0, 4, 1), ld(m, 0, 4, 3), false},
	}
	for _, c := range cases {
		b := block(c.a, c.b)
		g := Build(b, machine.Baseline)
		_, got := edgeBetween(g, 0, 1)
		if got != c.dep {
			t.Errorf("%s: dependent=%v, want %v", c.name, got, c.dep)
		}
	}
}

func TestTerminatorDrainsMemoryPorts(t *testing.T) {
	arch := machine.Arch{ALUs: 4, MULs: 2, Regs: 128, L2Ports: 1, L2Lat: 8, Clusters: 1}
	m := &ir.MemRef{Name: "a", Space: ir.L2, Elem: ir.ElemI32, Size: 64, IsParam: true}
	b := block(&ir.Instr{Op: ir.OpStore, Dest: ir.NoReg,
		Args: []ir.Operand{ir.Imm(0), ir.Imm(1)}, Mem: m, Elem: ir.ElemI32})
	g := Build(b, arch)
	d, ok := edgeBetween(g, 0, 1)
	if !ok || d != arch.L2Lat-1 {
		t.Errorf("store->term edge = %d,%v, want %d (port drain)", d, ok, arch.L2Lat-1)
	}
}

func TestCriticalPathOfChain(t *testing.T) {
	// r1 = r0*3; r2 = r1*3; r3 = r2+1  -> 2+2+1 = 5 (plus none for ret)
	b := block(
		ir.NewInstr(ir.OpMul, 1, ir.R(0), ir.Imm(3)),
		ir.NewInstr(ir.OpMul, 2, ir.R(1), ir.Imm(3)),
		ir.NewInstr(ir.OpAdd, 3, ir.R(2), ir.Imm(1)),
	)
	g := Build(b, machine.Baseline)
	if cp := g.CriticalPath(); cp != 5 {
		t.Errorf("critical path = %d, want 5", cp)
	}
}

func TestHeightsMonotoneAlongEdges(t *testing.T) {
	b := block(
		ir.NewInstr(ir.OpAdd, 1, ir.R(0), ir.Imm(1)),
		ir.NewInstr(ir.OpMul, 2, ir.R(1), ir.R(1)),
		ir.NewInstr(ir.OpSub, 3, ir.R(2), ir.R(0)),
		ir.NewInstr(ir.OpAdd, 4, ir.R(3), ir.R(1)),
	)
	g := Build(b, machine.Baseline)
	for _, nd := range g.Nodes {
		for _, e := range nd.Succs {
			if nd.Height < e.MinDelta+e.To.Height {
				t.Errorf("height(%v)=%d < %d+height(succ)=%d",
					nd.Instr, nd.Height, e.MinDelta, e.To.Height)
			}
		}
	}
}

func TestOutputDependenceOrdersCommits(t *testing.T) {
	m := &ir.MemRef{Name: "a", Space: ir.L2, Elem: ir.ElemI32, Size: 8, IsParam: true}
	// r1 = load (L2, lat 8); r1 = mov 5 — the mov commits after the load.
	b := block(
		&ir.Instr{Op: ir.OpLoad, Dest: 1, Args: []ir.Operand{ir.Imm(0)}, Mem: m, Elem: ir.ElemI32},
		ir.NewInstr(ir.OpMov, 1, ir.Imm(5)),
	)
	arch := machine.Baseline // L2Lat 8
	g := Build(b, arch)
	d, ok := edgeBetween(g, 0, 1)
	if !ok || d != 8-1+1 {
		t.Errorf("output edge = %d,%v, want 8 (loadLat-movLat+1)", d, ok)
	}
}

// TestMemoryEdgesMatchAllPairs holds the per-array bookkeeping of
// BuildSkeleton to the definition: every earlier memory operation
// against every later one through memDependence. Random blocks over
// three arrays with constant and register addresses, on machines with
// different Level-2 latencies.
func TestMemoryEdgesMatchAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mems := []*ir.MemRef{
		{Name: "a", Space: ir.L2, Elem: ir.ElemI32, Size: 64},
		{Name: "b", Space: ir.L2, Elem: ir.ElemI32, Size: 64},
		{Name: "s", Space: ir.L1, Elem: ir.ElemI32, Size: 64},
	}
	for trial := 0; trial < 200; trial++ {
		var ins []*ir.Instr
		next := ir.Reg(4) // r0..r3 are address bases
		for n := 1 + rng.Intn(60); n > 0; n-- {
			addr := ir.Imm(int32(rng.Intn(4)))
			if rng.Intn(2) == 0 {
				addr = ir.R(ir.Reg(rng.Intn(4)))
			}
			in := &ir.Instr{Mem: mems[rng.Intn(len(mems))], Off: int32(rng.Intn(3)), Elem: ir.ElemI32}
			if rng.Intn(3) == 0 {
				in.Op, in.Dest, in.Args = ir.OpStore, ir.NoReg, []ir.Operand{addr, ir.Imm(1)}
			} else {
				in.Op, in.Dest, in.Args = ir.OpLoad, next, []ir.Operand{addr}
				next++
			}
			ins = append(ins, in)
		}
		b := block(ins...)
		arch := machine.Baseline
		arch.L2Lat = []int{2, 4, 8}[rng.Intn(3)]
		sk := BuildSkeleton(b, arch)
		for i, later := range b.Instrs {
			for m, first := range b.Instrs[:i] {
				if !first.Op.IsMem() || !later.Op.IsMem() {
					continue
				}
				d, dep := memDependence(first, later)
				got := -1
				for _, e := range sk.Succs(m) {
					if int(e.To) == i {
						got = int(e.MinDelta)
					}
				}
				// A register edge between the pair may only be stronger.
				if dep && got < d {
					t.Fatalf("trial %d: %s then %s: edge %d, want at least %d", trial, first, later, got, d)
				}
				if !dep && got >= 0 && !regDependent(first, later) {
					t.Fatalf("trial %d: %s then %s: edge %d between independent operations", trial, first, later, got)
				}
			}
		}
	}
}

// regDependent reports whether later reads or rewrites a register
// first writes, or rewrites one it reads.
func regDependent(first, later *ir.Instr) bool {
	uses := func(in *ir.Instr, r ir.Reg) bool {
		for _, a := range in.Args {
			if a.IsReg() && a.Reg == r {
				return true
			}
		}
		return false
	}
	if first.Op.HasDest() && (uses(later, first.Dest) || later.Op.HasDest() && later.Dest == first.Dest) {
		return true
	}
	return later.Op.HasDest() && uses(first, later.Dest)
}
