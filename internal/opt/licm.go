package opt

import "customfit/internal/ir"

// LICM's notes on a register, dense over the function's registers: how
// often the loop body defines it (saturating at 2) and whether that
// definition has been hoisted.
const (
	licmDefs    = 3 // mask: 0, 1, or 2 for "more than once"
	licmHoisted = 4
)

// licm hoists loop-invariant computations out of the kernel's
// single-block pixel loop into its preheader: pure ALU operations whose
// inputs are loop-invariant, and loads from constant tables with
// invariant addresses.
//
// Hoisted constant-table loads are the paper's register-pressure story:
// a 7x7 convolution keeps its 49 coefficients live across the loop,
// which is why benchmark A wants a large register file — and why it
// collapses on the 16-ALU 128-register machine, where the coefficients
// no longer fit and get respilled.
func (ws *workspace) licm(f *ir.Func) {
	l := f.Loop
	if l == nil || !l.SingleBlock() || l.Preheader == nil {
		return
	}
	h := l.Header
	// Registers defined inside the loop body.
	regs := zeroed(&ws.regs, f.NumRegs(), 0)
	for _, in := range h.Instrs {
		if in.Op.HasDest() && regs[in.Dest]&licmDefs < 2 {
			regs[in.Dest]++
		}
	}
	lv := ws.liveness(f)

	invariantArg := func(a ir.Operand) bool {
		if a.IsImm() {
			return true
		}
		return regs[a.Reg]&licmDefs == 0 || regs[a.Reg]&licmHoisted != 0
	}
	canHoist := func(in *ir.Instr) bool {
		switch {
		case in.Op == ir.OpLoad:
			// Only constant tables, and only provably in-bounds constant
			// addresses: hoisting makes the load execute even when the
			// loop runs zero times, so it must be unconditionally safe.
			if !in.Mem.Const || !in.Args[0].IsImm() {
				return false
			}
			if e := int(in.Args[0].Imm) + int(in.Off); e < 0 || e >= in.Mem.Size {
				return false
			}
		case in.Op.IsALU():
		default:
			return false
		}
		if in.Dest == ir.NoReg || regs[in.Dest]&licmDefs != 1 {
			return false
		}
		// Home registers carry a value into the loop; redefining them
		// before the loop would clobber it.
		if lv.LiveIn(h, in.Dest) {
			return false
		}
		for _, a := range in.Args {
			if !invariantArg(a) {
				return false
			}
		}
		return true
	}

	// Each round moves what has become hoistable out of the body, which
	// is compacted in place.
	moved := ws.moved[:0]
	for changed := true; changed; {
		changed = false
		stay := h.Instrs[:0]
		for _, in := range h.Instrs {
			if !in.Op.IsTerminator() && canHoist(in) && regs[in.Dest]&licmHoisted == 0 {
				regs[in.Dest] |= licmHoisted
				moved = append(moved, in)
				changed = true
				continue
			}
			stay = append(stay, in)
		}
		h.Instrs = stay
	}
	ws.moved = moved
	if len(moved) == 0 {
		return
	}
	// Insert before the preheader's terminator. Hoisted operations are
	// safe to execute even when the loop runs zero times: pure ops
	// cannot fault and constant-table loads have verified bounds.
	pre := l.Preheader
	body, term := pre.Instrs[:len(pre.Instrs)-1], pre.Instrs[len(pre.Instrs)-1]
	instrs := make([]*ir.Instr, 0, len(pre.Instrs)+len(moved))
	instrs = append(instrs, body...)
	instrs = append(instrs, moved...)
	pre.Instrs = append(instrs, term)
}
