package opt

import (
	"slices"

	"customfit/internal/ir"
)

// MaxIfConvertOps bounds the number of instructions speculated per arm
// during if-conversion.
const MaxIfConvertOps = 64

// ifConvert converts if-then-else diamonds and if-then triangles whose
// arms are straight-line pure code into select sequences, then merges
// the resulting straight-line block chains. This is what collapses a
// kernel's pixel-loop body into the single basic block the unroller and
// scheduler need: both arms execute unconditionally and conditional
// writes become selects — the paper's "if-conversion" source
// transformation, applied automatically.
func (ws *workspace) ifConvert(f *ir.Func) {
	lv := ws.liveness(f)
	for changed := true; changed; {
		changed = false
		f.ComputeCFG()
		for _, b := range f.Blocks {
			if ws.convertAt(f, b, lv) {
				changed = true
				f.RemoveUnreachable()
				lv = ws.liveness(f)
				break
			}
		}
	}
	mergeChains(f)
	ws.cleanFunc(f)
}

// convertAt tries to if-convert the branch terminating b.
func (ws *workspace) convertAt(f *ir.Func, b *ir.Block, lv *Liveness) bool {
	term := b.Terminator()
	if term == nil || term.Op != ir.OpCBr {
		return false
	}
	t, e := term.Targets[0], term.Targets[1]
	var join *ir.Block
	var arms [2]*ir.Block
	switch {
	case t != e && isConvertibleArm(t, b) && isConvertibleArm(e, b) &&
		armTarget(t) == armTarget(e):
		join = armTarget(t)
		arms = [2]*ir.Block{t, e}
	case isConvertibleArm(t, b) && armTarget(t) == e:
		// Triangle: cbr c, t, join.
		join = e
		arms = [2]*ir.Block{t, nil}
	case isConvertibleArm(e, b) && armTarget(e) == t:
		// Mirrored triangle: cbr c, join, e.
		join = t
		arms = [2]*ir.Block{nil, e}
	default:
		return false
	}
	if join == t && join == e {
		return false // degenerate
	}
	cond := term.Args[0]

	// Drop the cbr; speculate both arms with renamed definitions; then
	// select the surviving values. final[i][r] is 1 + the register that
	// holds r's value at the end of arm i (0: the arm leaves r alone);
	// while an arm is copied it is also the renaming of its later reads.
	// Both tables are dense over the registers that exist now, which are
	// the ones the arms name; wrote lists the registers either arm writes.
	b.Instrs = b.Instrs[:len(b.Instrs)-1]
	final := &ws.arm
	for i := range final {
		zeroed(&final[i], f.NumRegs(), 0)
	}
	wrote := ws.wrote[:0]
	for i, arm := range arms {
		if arm == nil {
			continue
		}
		for _, in := range arm.Body() {
			cp := ws.slab().Clone(in, nil)
			for j, a := range cp.Args {
				if a.IsReg() && final[i][a.Reg] != 0 {
					cp.Args[j] = ir.R(final[i][a.Reg] - 1)
				}
			}
			if cp.Op.HasDest() {
				nr := f.NewReg()
				if final[0][cp.Dest] == 0 && final[1][cp.Dest] == 0 {
					wrote = append(wrote, cp.Dest)
				}
				final[i][cp.Dest] = nr + 1
				cp.Dest = nr
			}
			b.Append(cp)
		}
	}
	// Emit selects, in register order, for registers defined by either
	// arm and live into the join (expression temps die inside their arm
	// and need none).
	slices.Sort(wrote)
	ws.wrote = wrote
	for _, r := range wrote {
		if !lv.LiveIn(join, r) && !usedBelow(join, r) {
			continue
		}
		tv, fv := ir.R(r), ir.R(r)
		if nr := final[0][r]; nr != 0 {
			tv = ir.R(nr - 1)
		}
		if nr := final[1][r]; nr != 0 {
			fv = ir.R(nr - 1)
		}
		b.Append(ws.slab().New(ir.OpSelect, r, cond, tv, fv))
	}
	// The branch is not cut from a buffer: terminators outlive every
	// later Clean (see workspace).
	b.Append(&ir.Instr{Op: ir.OpBr, Dest: ir.NoReg, Targets: []*ir.Block{join}})
	return true
}

// usedBelow conservatively reports whether r might be read starting at
// block j; LiveIn already answers this, so this is belt-and-braces for
// stale liveness.
func usedBelow(j *ir.Block, r ir.Reg) bool {
	for _, in := range j.Instrs {
		for _, a := range in.Args {
			if a.IsReg() && a.Reg == r {
				return true
			}
		}
		if in.Op.HasDest() && in.Dest == r {
			return false
		}
	}
	return false
}

// isConvertibleArm reports whether blk is a straight-line, side-effect-
// free arm of a branch from pred: single predecessor, ends in an
// unconditional branch, and contains only pure ALU operations small
// enough to speculate.
func isConvertibleArm(blk, pred *ir.Block) bool {
	if blk == nil || len(blk.Preds) != 1 || blk.Preds[0] != pred {
		return false
	}
	term := blk.Terminator()
	if term == nil || term.Op != ir.OpBr {
		return false
	}
	body := blk.Body()
	if len(body) > MaxIfConvertOps {
		return false
	}
	for _, in := range body {
		if !in.Op.IsALU() {
			return false
		}
	}
	return true
}

func armTarget(blk *ir.Block) *ir.Block {
	if t := blk.Terminator(); t != nil && t.Op == ir.OpBr {
		return t.Targets[0]
	}
	return nil
}

// mergeChains splices each block ending in an unconditional branch to a
// single-predecessor block together with that block, rewiring loop
// metadata when the latch is absorbed.
func mergeChains(f *ir.Func) {
	for {
		f.ComputeCFG()
		merged := false
		for _, b := range f.Blocks {
			term := b.Terminator()
			if term == nil || term.Op != ir.OpBr {
				continue
			}
			next := term.Targets[0]
			if next == b || len(next.Preds) != 1 {
				continue
			}
			if next == f.Entry() {
				continue
			}
			// Splice next into b.
			b.Instrs = append(b.Instrs[:len(b.Instrs)-1], next.Instrs...)
			next.Instrs = nil
			if f.Loop != nil {
				if f.Loop.Latch == next {
					f.Loop.Latch = b
				}
				if f.Loop.Header == next {
					f.Loop.Header = b
				}
				if f.Loop.Preheader == next {
					f.Loop.Preheader = b
				}
			}
			// Remove next from Blocks.
			kept := f.Blocks[:0]
			for _, blk := range f.Blocks {
				if blk != next {
					kept = append(kept, blk)
				}
			}
			f.Blocks = kept
			merged = true
			break
		}
		if !merged {
			return
		}
	}
}
