package sched

import (
	"customfit/internal/ir"
)

// SpillMemName is the L1 array backing spilled registers.
const SpillMemName = "spill$"

// SpillRewrite inserts spill code for the given virtual registers into
// f (the pre-partition IR): after every definition the value is stored
// to a Level-1 spill slot and before every use it is reloaded into a
// fresh temporary. Values defined by a single constant-table load are
// rematerialized instead — the load is sunk back to its use sites,
// undoing LICM's hoist (cheaper than store+reload, and exactly the
// pressure/bandwidth trade the paper's pathological FIR case shows).
//
// regs must be distinct registers of f. The result is the one rewriting
// them one after the other, in order, would give — fresh temporaries
// and spill slots are numbered victim by victim, reloads in front of an
// instruction stand in victim order — but all of them are classified in
// one scan of f and only the blocks that mention one are rebuilt, once.
//
// Returns the number of registers actually rewritten.
func SpillRewrite(f *ir.Func, regs []ir.Reg) int {
	return new(rewriter).rewrite(f, regs)
}

// rewriter is SpillRewrite's memory: the slab the reloads and stores are
// cut from, and its tables. SpillRewrite's own is new per call, its slab
// owned by the function; the spill loop keeps one in the Scratch
// (workMem), whose slab is the working copy's.
type rewriter struct {
	slab     ir.Slab
	vs       []victim
	index    []int32 // register -> 1 + its position in regs
	mentions []bool  // per block
	ks       []int32
}

// victim is what the rewrite learns about one register it is asked to
// spill.
type victim struct {
	uses, defs int
	def        *ir.Instr // the definition, when there is only one
	kind       int       // see rewrite
	param      bool
	slot       int32
	next       ir.Reg // the victim's next fresh temporary
}

func (w *rewriter) rewrite(f *ir.Func, regs []ir.Reg) int {
	const (
		skip  = iota // no use to relieve, or no value to save
		remat        // replay the defining constant load at each use
		slot         // store after each def, reload before each use
	)
	vs := grow(&w.vs, len(regs))
	index := grow(&w.index, f.NumRegs())
	for k, r := range regs {
		index[r] = int32(k + 1)
	}
	victimOf := func(r ir.Reg) *victim {
		if index[r] == 0 {
			return nil
		}
		return &vs[index[r]-1]
	}
	defined := func(in *ir.Instr) *victim {
		if !in.Op.HasDest() {
			return nil
		}
		return victimOf(in.Dest)
	}

	// Classify. A rewrite of one victim inserts and drops only
	// instructions that mention no other, so the counts are those each
	// victim would see in its turn.
	mentions := grow(&w.mentions, len(f.Blocks))
	for bi, b := range f.Blocks {
		for _, in := range b.Instrs {
			for ai, a := range in.Args {
				if !a.IsReg() || dupArg(in.Args[:ai], a.Reg) {
					continue
				}
				if v := victimOf(a.Reg); v != nil {
					v.uses++
					mentions[bi] = true
				}
			}
			if v := defined(in); v != nil {
				v.defs++
				v.def = in
				mentions[bi] = true
			}
		}
	}
	var spill *ir.MemRef
	next := ir.Reg(f.NumRegs())
	done, params := 0, 0
	instrs, args := 0, 0 // what the rewrite will insert
	for k := range vs {
		v := &vs[k]
		if v.uses == 0 {
			continue // nothing to relieve
		}
		if d := v.def; v.defs == 1 && d.Op == ir.OpLoad && d.Mem.Const && d.Args[0].IsImm() {
			v.kind = remat
			instrs += v.uses
			args += v.uses * len(d.Args)
		} else {
			for _, p := range f.Params {
				if p.Reg == regs[k] {
					v.param = true
				}
			}
			if v.defs == 0 && !v.param {
				continue
			}
			v.kind = slot
			if spill == nil {
				if spill = f.MemByName(SpillMemName); spill == nil {
					spill = f.AddMem(&ir.MemRef{Name: SpillMemName, Space: ir.L1, Elem: ir.ElemI32})
				}
			}
			v.slot = int32(spill.Size)
			spill.Size++
			stores := v.defs
			if v.param {
				params++
				stores++
			}
			instrs += v.uses + stores
			args += v.uses + 2*stores
		}
		v.next = next
		next += ir.Reg(v.uses)
		done++
	}
	if done == 0 {
		return 0
	}
	f.SetNumRegs(int(next))

	// Reloads and stores are cut from the rewriter's slab, which has room
	// for what the scan above counted. The blocks' new lists are
	// allocations of their own: a round's replace the last round's, which
	// a slab would keep to the end of the compile.
	slab := &w.slab
	slab.Expect(instrs, args, 0)
	store := func(v *victim, r ir.Reg) *ir.Instr {
		in := slab.New(ir.OpStore, ir.NoReg, ir.Imm(v.slot), ir.R(r))
		in.Mem, in.Elem = spill, ir.ElemI32
		return in
	}
	// reloaded lists, in victim order, the rewritten victims in reads.
	ks := w.ks[:0]
	reloaded := func(in *ir.Instr) []int32 {
		ks = ks[:0]
		for ai, a := range in.Args {
			if !a.IsReg() || dupArg(in.Args[:ai], a.Reg) {
				continue
			}
			if v := victimOf(a.Reg); v != nil && v.kind != skip {
				k := index[a.Reg]
				ks = append(ks, k)
				for i := len(ks) - 1; i > 0 && ks[i-1] > k; i-- {
					ks[i], ks[i-1] = ks[i-1], ks[i]
				}
			}
		}
		return ks
	}

	for bi, b := range f.Blocks {
		entry := bi == 0 && params > 0
		if !mentions[bi] && !entry {
			continue
		}
		size := len(b.Instrs)
		if entry {
			size += params
		}
		for _, in := range b.Instrs {
			size += len(reloaded(in))
			if v := defined(in); v != nil {
				switch v.kind {
				case slot:
					size++
				case remat:
					size-- // the hoisted load goes
				}
			}
		}
		out := make([]*ir.Instr, 0, size)
		if entry {
			// The incoming value must reach the slot before any reload.
			// Each victim's store went in front of the block in its
			// turn, so the last victim's stands first.
			for k := len(vs) - 1; k >= 0; k-- {
				if v := &vs[k]; v.kind == slot && v.param {
					out = append(out, store(v, regs[k]))
				}
			}
		}
		for _, in := range b.Instrs {
			def := defined(in)
			if def != nil && def.kind == remat {
				continue // drop the hoisted load
			}
			// Loads into fresh temporaries precede uses.
			for _, k := range reloaded(in) {
				v, r := &vs[k-1], regs[k-1]
				t := v.next
				v.next++
				if v.kind == remat {
					cp := slab.Clone(v.def, nil)
					cp.Dest = t
					out = append(out, cp)
				} else {
					ld := slab.New(ir.OpLoad, t, ir.Imm(v.slot))
					ld.Mem, ld.Elem = spill, ir.ElemI32
					out = append(out, ld)
				}
				for i, a := range in.Args {
					if a.IsReg() && a.Reg == r {
						in.Args[i] = ir.R(t)
					}
				}
			}
			out = append(out, in)
			// Stores follow defs.
			if def != nil && def.kind == slot {
				out = append(out, store(def, in.Dest))
			}
		}
		b.Instrs = out
	}
	w.ks = ks[:0]
	return done
}
