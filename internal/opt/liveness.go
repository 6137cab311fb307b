// Package opt implements the optimizer passes of the custom-fit
// compiler: per-block cleanup (renaming, copy propagation, CSE,
// constant folding, strength reduction, addressing folds, dead-code
// elimination), scalar replacement of small local arrays,
// if-conversion, loop-invariant code motion, and pixel-loop unrolling.
//
// The IR discipline these passes maintain: "home" registers (scalar
// variables, loop counters) may be written in many blocks, but inside a
// cleaned block every definition is a fresh single-assignment temporary
// and home registers are written only by the block's final move group.
// This is the regional-renaming style of trace-scheduling compilers:
// it removes anti- and output-dependences inside the regions the
// scheduler works on, which is where the ILP the paper measures comes
// from.
package opt

import (
	"math/bits"

	"customfit/internal/ir"
)

// Liveness holds per-block live-in/live-out register sets: one array of
// bitset words, a live-in and a live-out set per block in function
// order.
type Liveness struct {
	blocks []*ir.Block // the blocks analysed, in function order
	sets   []uint64    // block i: live-in at [2i*words, (2i+1)*words), live-out after it
	words  int         // words per set
	nregs  int

	// work is the dataflow's working storage (the blocks' use and def
	// sets and one set more): kept by Recompute, dropped by
	// ComputeLiveness.
	work []uint64
}

// ComputeLiveness runs the standard backward dataflow over the CFG, which
// it reads off the terminators: f is not written, not even its blocks'
// Preds and Succs, so workers may analyse one shared function at once.
// The result owns its memory and is never modified again, so it can be
// kept and shared between goroutines.
func ComputeLiveness(f *ir.Func) *Liveness {
	lv := new(Liveness)
	lv.compute(f, 0)
	lv.work = nil
	return lv
}

// Recompute is ComputeLiveness into lv's own arrays, which it reuses,
// for a caller that is done with each analysis before it asks for the
// next: an optimizer pass's, a spill round's. The functions such a
// caller analyses grow by about one register per instruction from one to
// the next (a Clean renames into fresh temporaries, a spill rewrite adds
// reloads), so an array that has to grow gets room for that many more.
func (lv *Liveness) Recompute(f *ir.Func) { lv.compute(f, f.NumInstrs()) }

// Forget drops lv's pointers into the function it last analysed,
// keeping its arrays: what an arena does with a reused analysis before
// it goes idle.
func (lv *Liveness) Forget() { clear(lv.blocks[:cap(lv.blocks)]) }

// compute runs the dataflow into lv's arrays, growing them as needed.
// Arrays that have to grow get room for spare registers more.
func (lv *Liveness) compute(f *ir.Func, spare int) {
	n := f.NumRegs()
	nb, words := len(f.Blocks), (n+63)/64
	lv.blocks = append(lv.blocks[:0], f.Blocks...)
	lv.words, lv.nregs = words, n
	spare = (spare + 63) / 64 * (2*nb + 1)
	zeroed(&lv.sets, 2*nb*words, spare)
	work := zeroed(&lv.work, (2*nb+1)*words, spare)
	use := func(i int) regset { return work[2*i*words : (2*i+1)*words] }
	def := func(i int) regset { return work[(2*i+1)*words : (2*i+2)*words] }
	nin := regset(work[2*nb*words:])
	for i, b := range f.Blocks {
		u, d := use(i), def(i)
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if a.IsReg() && !d.get(a.Reg) {
					u.set(a.Reg)
				}
			}
			if in.Op.HasDest() {
				d.set(in.Dest)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := nb - 1; i >= 0; i-- {
			out := lv.out(i)
			if t := f.Blocks[i].Terminator(); t != nil {
				for _, s := range t.Targets {
					if out.unionWith(lv.in(lv.index(s))) {
						changed = true
					}
				}
			}
			// in = use ∪ (out - def)
			copy(nin, out)
			nin.subtract(def(i))
			nin.unionWith(use(i))
			if lv.in(i).unionWith(nin) {
				changed = true
			}
		}
	}
}

// index returns b's position among the blocks analysed, or -1. A linear
// search: kernels have a handful of blocks, callers ask once per block
// (Sets) or know the index already (the passes of this package), and a
// Liveness shared between goroutines cannot cache the last answer.
func (lv *Liveness) index(b *ir.Block) int {
	for i, x := range lv.blocks {
		if x == b {
			return i
		}
	}
	return -1
}

func (lv *Liveness) in(i int) regset  { return lv.sets[2*i*lv.words : (2*i+1)*lv.words] }
func (lv *Liveness) out(i int) regset { return lv.sets[(2*i+1)*lv.words : (2*i+2)*lv.words] }

// liveOut is LiveOut for the i-th block analysed.
func (lv *Liveness) liveOut(i int, r ir.Reg) bool {
	return int(r) < lv.nregs && lv.out(i).get(r)
}

// LiveOut reports whether r is live on exit from b.
func (lv *Liveness) LiveOut(b *ir.Block, r ir.Reg) bool {
	i := lv.index(b)
	return i >= 0 && lv.liveOut(i, r)
}

// LiveIn reports whether r is live on entry to b.
func (lv *Liveness) LiveIn(b *ir.Block, r ir.Reg) bool {
	i := lv.index(b)
	return i >= 0 && int(r) < lv.nregs && lv.in(i).get(r)
}

// Sets returns b's live-in and live-out sets as bitset words (bit r%64
// of word r/64 is register r), for callers that walk the live registers
// instead of probing each one. The words are the analysis's own: read
// only. Both are nil for a block the analysis never saw.
func (lv *Liveness) Sets(b *ir.Block) (in, out []uint64) {
	i := lv.index(b)
	if i < 0 {
		return nil, nil
	}
	return lv.in(i), lv.out(i)
}

// EachReg calls fn for every register of a set returned by Sets, in
// ascending order.
func EachReg(set []uint64, fn func(ir.Reg)) {
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			fn(ir.Reg(w<<6 + bits.TrailingZeros64(word)))
		}
	}
}

// regset is a dense register bitset: a view of words someone else owns.
type regset []uint64

func (s regset) set(r ir.Reg)      { s[r/64] |= 1 << (uint(r) % 64) }
func (s regset) get(r ir.Reg) bool { return s[r/64]&(1<<(uint(r)%64)) != 0 }

func (s regset) unionWith(o regset) bool {
	changed := false
	for i := range s {
		nw := s[i] | o[i]
		if nw != s[i] {
			s[i] = nw
			changed = true
		}
	}
	return changed
}

func (s regset) subtract(o regset) {
	for i := range s {
		s[i] &^= o[i]
	}
}
