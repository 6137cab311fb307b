package sched

import (
	"slices"

	"customfit/internal/idle"
	"customfit/internal/ir"
	"customfit/internal/opt"
	"customfit/internal/vliw"
)

// roundMem is what a spill round after the first builds for itself
// (runRound), all of it in the Scratch: the partitioned clone of the
// working copy — header, blocks and block map (shell), instructions,
// operands, branch targets, block lists and inserted copies (slab) — its
// register homes and liveness, and its schedule: every block, their ops
// and scheduler peaks, the block table, the blame table and the program
// shell. The allocation lives in the allocator's arena
// (regalloc.AllocateReuse). The next round overwrites all of it, so a
// round's program is valid until then — or, once it fits, until the
// next compile through the Scratch, unless the entry copies it out (own).
type roundMem struct {
	shell      ir.Shell
	slab       ir.Slab
	regCluster []int
	pl         Placement
	lv         opt.Liveness

	blocks []vliw.Block
	table  []*vliw.Block
	ops    []vliw.Op
	at     []int32 // at[k]: the position in its block of the instruction ops[k] issues
	peaks  []int
	blame  []int
	prog   vliw.Program
}

// placement returns a placement homing n registers, all on cluster 0
// until the partitioner says otherwise: the round's with r non-nil, one
// of its own with r nil.
func (r *roundMem) placement(n int) *Placement {
	if r == nil {
		return &Placement{RegCluster: make([]int, n)}
	}
	r.pl = Placement{RegCluster: grow(&r.regCluster, n)}
	return &r.pl
}

// begin readies the schedule's memory for a function of n instructions
// in nb blocks on nc clusters.
func (r *roundMem) begin(n, nb, nc int) {
	r.ops = room(&r.ops, n)
	r.at = room(&r.at, n)
	grow(&r.blocks, nb)
	grow(&r.peaks, nb*nc)
	r.table = r.table[:0]
}

// block returns the empty schedule of b, block bi of the round's
// function, for scheduleBlock to fill: newBlock's, cut from the round.
func (r *roundMem) block(bi int, b *ir.Block, nc int) *vliw.Block {
	sb := &r.blocks[bi]
	if n := len(b.Instrs); n > 0 {
		k := len(r.ops)
		r.ops = r.ops[:k+n]
		*sb = vliw.Block{IR: b, Ops: r.ops[k : k : k+n], SchedPeak: r.peaks[bi*nc : (bi+1)*nc : (bi+1)*nc]}
	} else {
		*sb = vliw.Block{IR: b}
	}
	return sb
}

// own copies out of the round what a Result keeps of its program — the
// function it was scheduled from (a clone), the block schedules with
// their ops on the clone's instructions, the register homes, the
// allocation and the blame table — once, each at its exact size.
func (r *roundMem) own() *vliw.Program {
	p := &r.prog
	f := p.F.Clone()
	nb, nc := len(p.Blocks), p.Arch.Clusters
	blocks := make([]vliw.Block, nb)
	table := make([]*vliw.Block, nb)
	ops := make([]vliw.Op, 0, len(r.at))
	peaks := make([]int, 0, nb*nc)
	at := r.at
	for bi, sb := range p.Blocks {
		b := &blocks[bi]
		*b = vliw.Block{IR: f.Blocks[bi], Len: sb.Len, Forced: sb.Forced}
		if sb.Ops != nil {
			k := len(ops)
			for j, op := range sb.Ops {
				op.Instr = b.IR.Instrs[at[j]]
				ops = append(ops, op)
			}
			b.Ops = ops[k:len(ops):len(ops)]
			at = at[len(sb.Ops):]
		}
		if sb.SchedPeak != nil {
			k := len(peaks)
			peaks = append(peaks, sb.SchedPeak...)
			b.SchedPeak = peaks[k:len(peaks):len(peaks)]
		}
		table[bi] = b
	}
	return &vliw.Program{
		Arch:       p.Arch,
		F:          f,
		Blocks:     table,
		RegCluster: slices.Clone(p.RegCluster),
		Spills:     p.Spills,
		MaxLive:    slices.Clone(p.MaxLive),
		PhysAssign: slices.Clone(p.PhysAssign),
		Blame:      slices.Clone(p.Blame),
	}
}

// forget drops every pointer the round holds into the function and the
// program it last built, keeping its arrays.
func (r *roundMem) forget() {
	r.shell.Forget()
	r.slab.Forget()
	r.lv.Forget()
	idle.Wipe(r.blocks)
	idle.Wipe(r.table)
	idle.Wipe(r.ops)
	r.prog = vliw.Program{}
}

// workMem is the spill loop's working copy of the lowered IR and what
// rewrites it (spillLoop): the copy's header and blocks, and the
// rewriter, whose slab the copy's instructions and block lists are cut
// from as well as the reloads and stores every round's rewrite adds. It
// lives for one compile: the loop resets it when it starts.
type workMem struct {
	shell ir.Shell
	rw    rewriter
}

func (w *workMem) forget() {
	w.shell.Forget()
	w.rw.slab.Forget()
	idle.Wipe(w.rw.vs)
}

// room returns *buf emptied, with room for n entries — in its array, or
// in one a quarter larger, as ir.Slab.Reset grows — and stores it back.
func room[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, 0, n+n/4)
	}
	*buf = (*buf)[:0]
	return *buf
}
