package sched

import (
	"customfit/internal/ir"
	"customfit/internal/opt"
)

// FuseMinMax rewrites compare+select idioms into single-cycle min/max
// operations for targets whose ALU repertoire includes them
// (machine.Arch.MinMax). This is the backend half of the paper's
// opcode-choice axis: "This methodology allows us to give any opcode
// choice to the compiler" — the architecture-independent IR never
// contains OpMin/OpMax; they appear only after retargeting.
//
// Patterns (a, b any operands; the compare's result may have other
// users, in which case the compare itself survives):
//
//	c = a <  b ; d = select c, a, b   →  d = min a, b
//	c = a <  b ; d = select c, b, a   →  d = max a, b
//	c = a >  b ; d = select c, a, b   →  d = max a, b
//	c = a >  b ; d = select c, b, a   →  d = min a, b
//
// (<= and >= fuse identically: on ties both arms are equal.)
//
// Returns the number of selects fused. Call before partitioning; follow
// with opt.Clean to sweep compares that became dead.
func FuseMinMax(f *ir.Func) int {
	fused := 0
	for _, b := range f.Blocks {
		// Map from compare destination to its instruction, block-local.
		cmps := map[ir.Reg]*ir.Instr{}
		for _, in := range b.Instrs {
			if in.Op.IsCmp() && in.Dest != ir.NoReg {
				cmps[in.Dest] = in
			} else if in.Op.HasDest() {
				delete(cmps, in.Dest)
			}
			if in.Op != ir.OpSelect || !in.Args[0].IsReg() {
				continue
			}
			cmp, ok := cmps[in.Args[0].Reg]
			if !ok {
				continue
			}
			var lessLike bool
			switch cmp.Op {
			case ir.OpCmpLT, ir.OpCmpLE:
				lessLike = true
			case ir.OpCmpGT, ir.OpCmpGE:
				lessLike = false
			default:
				continue
			}
			a, bb := cmp.Args[0], cmp.Args[1]
			t, e := in.Args[1], in.Args[2]
			var op ir.Op
			switch {
			case t == a && e == bb:
				op = ir.OpMin
			case t == bb && e == a:
				op = ir.OpMax
			default:
				continue
			}
			if !lessLike {
				if op == ir.OpMin {
					op = ir.OpMax
				} else {
					op = ir.OpMin
				}
			}
			in.Op = op
			in.Args = []ir.Operand{a, bb}
			fused++
		}
	}
	if fused > 0 {
		opt.Clean(f) // sweep compares with no remaining users
	}
	return fused
}
