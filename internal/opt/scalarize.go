package opt

import "customfit/internal/ir"

// MaxScalarizeElems bounds the size of local arrays promoted to
// registers. 64 covers an 8x8 DCT workspace: on machines with large
// register files the whole block stays register-resident (which is why
// the paper's IDCT wants 512 registers), while small machines pay spill
// traffic.
const MaxScalarizeElems = 64

// scalarize promotes small kernel-local arrays whose every access uses
// a constant index into per-element registers. After the frontend fully
// unrolls constant-trip loops, scratch arrays indexed by unrolled
// counters (Floyd-Steinberg's Err[3], out[3]) become constant-indexed
// and turn into plain scalars, which is what frees the scheduler to
// software-overlap iterations.
//
// Parameter arrays and file-level globals are never scalarized: they
// are externally visible storage. Run Clean first so constant indices
// are immediates.
func (ws *workspace) scalarize(f *ir.Func) {
	// Snapshot: scalarizeMem removes entries from f.Mems in place.
	mems := append([]*ir.MemRef(nil), f.Mems...)
	for _, m := range mems {
		if m.IsParam || m.Global || m.Size <= 0 || m.Size > MaxScalarizeElems {
			continue
		}
		if !allAccessesConstant(f, m) {
			continue
		}
		ws.scalarizeMem(f, m)
	}
	ws.cleanFunc(f)
}

func allAccessesConstant(f *ir.Func, m *ir.MemRef) bool {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Mem != m {
				continue
			}
			idx := in.Args[0]
			if !idx.IsImm() {
				return false
			}
			e := int(idx.Imm) + int(in.Off)
			if e < 0 || e >= m.Size {
				return false
			}
		}
	}
	return true
}

func (ws *workspace) scalarizeMem(f *ir.Func, m *ir.MemRef) {
	elems := make([]ir.Reg, m.Size)
	for i := range elems {
		elems[i] = f.NewReg()
	}
	// Initialize elements at function entry (locals start zeroed, with
	// declared initializers applied).
	entry := f.Entry()
	inits := make([]*ir.Instr, 0, len(elems)+len(entry.Instrs))
	for i, r := range elems {
		v := int32(0)
		if i < len(m.Init) {
			v = m.Init[i]
		}
		inits = append(inits, ws.slab().New(ir.OpMov, r, ir.Imm(v)))
	}
	entry.Instrs = append(inits, entry.Instrs...)

	for _, b := range f.Blocks {
		out, touched := ws.out[:0], false
		for _, in := range b.Instrs {
			if in.Mem != m {
				out = append(out, in)
				continue
			}
			touched = true
			e := int(in.Args[0].Imm) + int(in.Off)
			switch in.Op {
			case ir.OpLoad:
				// Stored values are kept in canonical (truncated) form,
				// so a load is a plain copy.
				out = append(out, ws.slab().New(ir.OpMov, in.Dest, ir.R(elems[e])))
			case ir.OpStore:
				out = ws.truncateTo(out, f, m.Elem, in.Args[1], elems[e])
			}
		}
		ws.out = out
		if touched {
			b.Instrs = owned(out)
		}
	}
	// Drop the MemRef.
	kept := f.Mems[:0]
	for _, mm := range f.Mems {
		if mm != m {
			kept = append(kept, mm)
		}
	}
	f.Mems = kept
}

// truncateTo appends to out the operations storing val into the element
// register dst with the narrowing semantics of the element type.
func (ws *workspace) truncateTo(out []*ir.Instr, f *ir.Func, elem ir.ElemType, val ir.Operand, dst ir.Reg) []*ir.Instr {
	s := ws.slab()
	if val.IsImm() {
		return append(out, s.New(ir.OpMov, dst, ir.Imm(elem.Truncate(val.Imm))))
	}
	switch elem {
	case ir.ElemI32:
		return append(out, s.New(ir.OpMov, dst, val))
	case ir.ElemU8:
		return append(out, s.New(ir.OpAnd, dst, val, ir.Imm(0xff)))
	case ir.ElemU16:
		return append(out, s.New(ir.OpAnd, dst, val, ir.Imm(0xffff)))
	case ir.ElemI8, ir.ElemI16:
		sh := ir.Imm(24)
		if elem == ir.ElemI16 {
			sh = ir.Imm(16)
		}
		t := f.NewReg()
		return append(out,
			s.New(ir.OpShl, t, val, sh),
			s.New(ir.OpShrA, dst, ir.R(t), sh))
	}
	panic("opt: bad element type")
}
