package vliw

import (
	"strings"
	"testing"

	"customfit/internal/ir"
	"customfit/internal/machine"
)

func tinyProgram() (*Program, *ir.Func) {
	f := ir.NewFunc("t")
	b := f.NewBlock("entry")
	r0, r1 := f.NewReg(), f.NewReg()
	i1 := ir.NewInstr(ir.OpMov, r0, ir.Imm(3))
	i2 := ir.NewInstr(ir.OpAdd, r1, ir.R(r0), ir.Imm(4))
	ret := &ir.Instr{Op: ir.OpRet, Dest: ir.NoReg}
	b.Append(i1)
	b.Append(i2)
	b.Append(ret)
	p := &Program{
		Arch: machine.Baseline,
		F:    f,
		Blocks: []*Block{{
			IR:  b,
			Len: 3,
			Ops: []Op{
				{Instr: i1, Cycle: 0},
				{Instr: i2, Cycle: 1},
				{Instr: ret, Cycle: 2},
			},
		}},
	}
	return p, f
}

func TestCountsAndIPC(t *testing.T) {
	p, _ := tinyProgram()
	if p.BundleCount() != 3 {
		t.Errorf("BundleCount = %d, want 3", p.BundleCount())
	}
	if p.OpCount() != 3 {
		t.Errorf("OpCount = %d, want 3", p.OpCount())
	}
	if ipc := p.IPC(); ipc != 1.0 {
		t.Errorf("IPC = %f, want 1", ipc)
	}
}

func TestStaticCycles(t *testing.T) {
	p, _ := tinyProgram()
	got := p.StaticCycles(map[string]int64{"entry0": 5})
	if got != 15 {
		t.Errorf("StaticCycles = %d, want 15", got)
	}
}

func TestStringRendersBundles(t *testing.T) {
	p, _ := tinyProgram()
	s := p.String()
	for _, want := range []string{"entry0:", "3 bundles", "mov", "add", "ret"} {
		if !strings.Contains(s, want) {
			t.Errorf("assembly missing %q:\n%s", want, s)
		}
	}
}

func TestBlockFor(t *testing.T) {
	p, f := tinyProgram()
	if p.BlockFor(f.Blocks[0]) == nil {
		t.Error("BlockFor lost the block")
	}
	other := f.NewBlock("x")
	if p.BlockFor(other) != nil {
		t.Error("BlockFor invented a schedule")
	}
}

func TestUtilization(t *testing.T) {
	p, _ := tinyProgram()
	u := p.Utilization()
	// 2 ALU ops over 3 bundles × 1 ALU.
	if u.ALU < 0.6 || u.ALU > 0.7 {
		t.Errorf("ALU utilization = %f, want ~0.67", u.ALU)
	}
	if u.Moves != 0 || u.Bus != 0 {
		t.Errorf("single-cluster program reports moves/bus usage: %+v", u)
	}

	// A fused op issues on the custom unit: in a bundle with one add,
	// the one ALU slot is filled once, not twice.
	fused := &ir.Instr{Op: ir.OpFused, Dest: p.F.NewReg()}
	add := ir.NewInstr(ir.OpAdd, p.F.NewReg(), ir.Imm(1), ir.Imm(2))
	p.Blocks = []*Block{{Len: 1, Ops: []Op{{Instr: fused}, {Instr: add}}}}
	if u := p.Utilization(); u.ALU != 1 {
		t.Errorf("ALU utilization of {fused, add} on one ALU = %v, want 1", u.ALU)
	}
}

func TestIPCAndEmpty(t *testing.T) {
	empty := &Program{Arch: machine.Baseline, F: ir.NewFunc("e")}
	if empty.IPC() != 0 || empty.BundleCount() != 0 || empty.OpCount() != 0 {
		t.Error("empty program metrics nonzero")
	}
	if empty.StaticCycles(map[string]int64{}) != 0 {
		t.Error("empty program cycles nonzero")
	}
}
