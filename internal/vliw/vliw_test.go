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

func TestIPCAndEmpty(t *testing.T) {
	empty := &Program{Arch: machine.Baseline, F: ir.NewFunc("e")}
	if empty.IPC() != 0 || empty.BundleCount() != 0 || empty.OpCount() != 0 {
		t.Error("empty program metrics nonzero")
	}
	if empty.StaticCycles(map[string]int64{}) != 0 {
		t.Error("empty program cycles nonzero")
	}
}
