// Package sched implements the architecture-dependent backend: cluster
// partitioning with explicit inter-cluster moves, cycle-driven list
// scheduling against the machine's resource model, and the
// schedule/allocate/spill iteration driver.
package sched

import (
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/opt"
)

// Placement is the result of cluster partitioning: a home cluster for
// every virtual register. Instructions carry their executing cluster in
// ir.Instr.Cluster (set by the partitioner). For an OpXMov, that is the
// destination cluster and the issue slot is charged to the source.
type Placement struct {
	RegCluster []int
}

// Cluster returns the executing (destination) cluster of in.
func (pl *Placement) Cluster(in *ir.Instr) int {
	return int(in.Cluster)
}

// SrcCluster returns the cluster whose ALU issue slot in occupies: the
// source cluster for inter-cluster moves, the executing cluster
// otherwise.
func (pl *Placement) SrcCluster(in *ir.Instr) int {
	if in.Op == ir.OpXMov && in.Args[0].IsReg() {
		return pl.RegCluster[in.Args[0].Reg]
	}
	return int(in.Cluster)
}

// balanceWeight prices an inter-cluster copy against load imbalance: a
// cluster must be ahead by this many operations before moving an op
// away from its operands wins. High enough that dependence chains stay
// cluster-local (each hop costs LatMove plus a bus slot) while
// independent chains — unrolled iterations, color channels — still
// spread; the scatter diagrams are very sensitive to this constant.
const balanceWeight = 8

// PartitionClone assigns every virtual register and instruction of a
// copy of src to a cluster, and inserts explicit OpXMov copies wherever
// an operation consumes a value homed in another cluster. src is left untouched: the clone and the assignment
// are made in one pass over the instruction stream.
//
// The policy is a bottom-up greedy in the spirit of the BUG family:
// walk each block in program (dependence) order; place each value on
// the cluster minimizing inter-cluster copies, with a load-balance term
// so wide expression trees spread across clusters instead of clumping
// where their first operands happen to live. Registers live across
// blocks get a fixed home cluster at their first definition; scalar
// parameters arrive on cluster 0; the branch unit (and so every branch
// condition) lives on cluster 0.
func PartitionClone(src *ir.Func, arch machine.Arch) (*ir.Func, *Placement) {
	return partitionClone(src, arch, new(partScratch), nil)
}

// partitionClone is PartitionClone working in the caller's tables, and
// with r (a spill round's memory) building the clone and its placement
// there: see partition.
func partitionClone(src *ir.Func, arch machine.Arch, ps *partScratch, r *roundMem) (*ir.Func, *Placement) {
	var nf *ir.Func
	var bmap map[*ir.Block]*ir.Block
	if r == nil {
		nf, bmap = src.CloneShell()
	} else {
		nf, bmap = src.CloneShellInto(&r.shell)
	}
	pl := partition(src, nf, bmap, arch, ps, r)
	nf.ComputeCFG()
	return nf, pl
}

// partScratch is the partitioner's working state, kept in the Scratch:
// tables indexed by the source function's registers where maps keyed by
// them used to be rebuilt for every block.
type partScratch struct {
	// Per function. home is 1 + the register's home cluster, 0 while
	// it has none; fixed marks the registers live into some block, which
	// lv, the source's liveness, says. out is the output's instruction
	// lists one after another, a nil hole where a move goes, and starts
	// where each block's begins, and where the last one ends.
	home   []int32
	fixed  []bool
	lv     opt.Liveness
	out    []*ir.Instr
	starts []int32

	// Per block, zero between blocks: touched lists the registers whose
	// remaining or isLive entry a block wrote, a block's own moves name
	// its copies entries (1 + index into moves, at [r*clusters+c]), and
	// every pending load is resolved by the end of its block.
	remaining    []int32
	isLive       []bool
	touched      []ir.Reg
	copies       []int32
	pending      []*ir.Instr
	pendingOrder []ir.Reg
	load         []int
	memLoad      []int
	liveCnt      []int

	// moves lists the inter-cluster copies inserted so far. They become
	// instructions only when the last block is done and their number is
	// known (see partition); until then each is a hole in its block.
	moves []xmove
}

// xmove is one inserted copy: dest = xmov src, executing on cluster,
// standing at position pos of the output's lists (partScratch.out).
type xmove struct {
	pos       int32
	dest, src ir.Reg
	cluster   int16
}

// partition runs the partitioner reading src's blocks and writing dst's
// (dst == src for the in-place form). bmap, non-nil only in clone mode,
// remaps cloned branch targets into dst.
//
// A clone's instructions live in a slab, never in heap objects of their
// own: the copies of src's, and after the last block, when their number
// is known, the inserted moves and every block's instruction list. So
// partitioning allocates per function, not per block or instruction. The
// slab and the placement are r's, a spill round's memory, or with r nil
// of their own; the in-place form's lists and moves take a slab of f's.
func partition(src, dst *ir.Func, bmap map[*ir.Block]*ir.Block, arch machine.Arch, ps *partScratch, r *roundMem) *Placement {
	var own ir.Slab
	p := &partitioner{partScratch: ps, f: dst, bmap: bmap, nc: arch.Clusters, slab: &own}
	if bmap != nil {
		instrs, args := src.Size()
		if r != nil {
			p.slab = &r.slab
			p.slab.Reset(instrs, args)
		} else {
			p.slab.Expect(instrs, args, instrs)
		}
	}
	nregs := src.NumRegs()
	if p.nc <= 1 {
		for bi, b := range src.Blocks {
			if bmap == nil {
				for _, in := range b.Instrs {
					in.Cluster = 0
				}
				continue
			}
			instrs := p.slab.List(len(b.Instrs))
			for i, in := range b.Instrs {
				instrs[i] = p.emitCopy(in)
				instrs[i].Cluster = 0
			}
			dst.Blocks[bi].Instrs = instrs
		}
		return r.placement(nregs)
	}
	grow(&p.home, nregs)
	grow(&p.fixed, nregs)
	grow(&p.remaining, nregs)
	grow(&p.isLive, nregs)
	grow(&p.copies, nregs*p.nc)
	grow(&p.pending, nregs)
	p.moves = p.moves[:0]
	p.out = p.out[:0]
	p.starts = append(p.starts[:0], 0)
	p.lv.Recompute(src)
	for _, b := range src.Blocks {
		liveIn, _ := p.lv.Sets(b)
		opt.EachReg(liveIn, func(r ir.Reg) { p.fixed[r] = true })
	}
	for _, prm := range src.Params {
		p.setHome(prm.Reg, 0)
	}
	for bi, b := range src.Blocks {
		p.block(bi, b)
	}

	// The moves become instructions and every block's list is cut, all
	// from one list of the function's: the moves fill their holes in it.
	out := p.out
	p.slab.Expect(len(p.moves), len(p.moves), len(out))
	lists := p.slab.List(len(out))
	copy(lists, out)
	pl := r.placement(dst.NumRegs())
	regCluster := pl.RegCluster
	for reg, h := range p.home {
		if h != 0 {
			regCluster[reg] = int(h - 1)
		}
	}
	for _, m := range p.moves {
		in := p.slab.New(ir.OpXMov, m.dest, ir.R(m.src))
		in.Cluster = m.cluster
		lists[m.pos] = in
		regCluster[m.dest] = int(m.cluster)
	}
	for bi, b := range dst.Blocks {
		s, e := p.starts[bi], p.starts[bi+1]
		b.Instrs = lists[s:e:e]
	}
	clear(out) // no instruction pointer behind in the arena
	return pl
}

type partitioner struct {
	*partScratch
	f    *ir.Func
	bmap map[*ir.Block]*ir.Block // nil when partitioning in place
	slab *ir.Slab                // the output's instructions and lists: its own, or a round's
	nc   int
}

// emitCopy clones in for the output function in clone mode (remapping
// branch targets), or returns in itself when partitioning in place.
func (p *partitioner) emitCopy(in *ir.Instr) *ir.Instr {
	if p.bmap == nil {
		return in
	}
	return p.slab.Clone(in, p.bmap)
}

func (p *partitioner) setHome(r ir.Reg, c int) {
	p.home[r] = int32(c + 1)
}

func (p *partitioner) homeOf(r ir.Reg) (int, bool) {
	h := p.home[r]
	return int(h - 1), h != 0
}

// block partitions b, block bi of the source, into block bi of p.f.
func (p *partitioner) block(bi int, b *ir.Block) {
	nc := p.nc
	load := grow(&p.load, nc)
	memLoad := grow(&p.memLoad, nc)
	copies := p.copies
	firstMove := len(p.moves)
	out := p.out

	// Live-value estimate per cluster, maintained in program order, so
	// placement balances register pressure as well as issue slots.
	liveCnt := grow(&p.liveCnt, nc)
	remaining, isLive := p.remaining, p.isLive
	touched := p.touched[:0]
	for _, in := range b.Instrs {
		for _, a := range in.Args {
			if a.IsReg() {
				if remaining[a.Reg] == 0 {
					touched = append(touched, a.Reg)
				}
				remaining[a.Reg]++
			}
		}
	}
	noteUse := func(a ir.Operand) {
		if !a.IsReg() {
			return
		}
		remaining[a.Reg]--
		if remaining[a.Reg] <= 0 && isLive[a.Reg] {
			isLive[a.Reg] = false
			if home, ok := p.homeOf(a.Reg); ok {
				liveCnt[home]--
			}
		}
	}
	noteDef := func(r ir.Reg, c int) {
		if r == ir.NoReg || isLive[r] {
			return
		}
		isLive[r] = true
		touched = append(touched, r)
		liveCnt[c]++
	}

	// Loads with immediate addresses (spill reloads, rematerialized
	// constants) have no operand anchoring them to a cluster, so their
	// placement is deferred until the first consumer: landing them in
	// the consumer's cluster avoids a long-lived cross-cluster copy —
	// critical under register pressure, when these loads are exactly
	// the values being staged through memory.
	pending := p.pending
	pendingOrder := p.pendingOrder[:0] // deterministic end-of-block resolution
	resolvePending := func(r ir.Reg, c int) {
		ld := pending[r]
		if ld == nil {
			return
		}
		pending[r] = nil
		p.setHome(r, c)
		ld.Cluster = int16(c)
		memLoad[c]++
	}

	localize := func(a ir.Operand, c int) ir.Operand {
		if !a.IsReg() {
			return a
		}
		src, ok := p.homeOf(a.Reg)
		if !ok {
			p.setHome(a.Reg, c) // defensive adoption
			return a
		}
		if src == c {
			return a
		}
		if k := copies[int(a.Reg)*nc+c]; k != 0 {
			return ir.R(p.moves[k-1].dest)
		}
		nr := p.f.NewReg()
		p.moves = append(p.moves, xmove{int32(len(out)), nr, a.Reg, int16(c)})
		out = append(out, nil) // the move's place, see partition
		copies[int(a.Reg)*nc+c] = int32(len(p.moves))
		load[src]++  // the move occupies an issue slot on the source cluster
		liveCnt[c]++ // nr is fresh, and nothing below asks about it again
		return ir.R(nr)
	}

	chooseCluster := func(args []ir.Operand, isMem bool) int {
		best, bestCost := 0, int(^uint(0)>>1)
		for c := 0; c < nc; c++ {
			cost := 0
			for _, a := range args {
				if !a.IsReg() {
					continue
				}
				if home, ok := p.homeOf(a.Reg); ok && home != c && copies[int(a.Reg)*nc+c] == 0 {
					cost += balanceWeight
				}
			}
			if isMem {
				cost += memLoad[c]
			} else {
				cost += load[c]
			}
			cost += liveCnt[c]
			if cost < bestCost {
				best, bestCost = c, cost
			}
		}
		return best
	}

	// define homes in's result on c; copies of its old value are stale.
	define := func(in *ir.Instr, c int) {
		if in.Dest == ir.NoReg {
			return
		}
		p.setHome(in.Dest, c)
		clear(copies[int(in.Dest)*nc : (int(in.Dest)+1)*nc])
	}

	resolveArgs := func(in *ir.Instr, c int) {
		for _, a := range in.Args {
			if a.IsReg() {
				resolvePending(a.Reg, c)
			}
		}
	}

	for _, orig := range b.Instrs {
		in := p.emitCopy(orig)
		switch in.Op {
		case ir.OpBr, ir.OpRet:
			in.Cluster = 0
			out = append(out, in)
		case ir.OpCBr:
			resolveArgs(in, 0)
			orig := in.Args[0]
			in.Args[0] = localize(in.Args[0], 0)
			noteUse(orig)
			in.Cluster = 0
			out = append(out, in)
		case ir.OpStore:
			c := chooseCluster(in.Args, true)
			resolveArgs(in, c)
			for i := range in.Args {
				orig := in.Args[i]
				in.Args[i] = localize(in.Args[i], c)
				noteUse(orig)
			}
			in.Cluster = int16(c)
			memLoad[c]++
			out = append(out, in)
		default:
			// Immediate-address loads wait for their first consumer.
			if in.Op == ir.OpLoad && in.Args[0].IsImm() && in.Dest != ir.NoReg &&
				!p.fixed[in.Dest] {
				pending[in.Dest] = in
				pendingOrder = append(pendingOrder, in.Dest)
				out = append(out, in)
				continue
			}
			// Value-producing operation.
			c, forced := 0, false
			if in.Dest != ir.NoReg && p.fixed[in.Dest] {
				if home, ok := p.homeOf(in.Dest); ok {
					c, forced = home, true
				}
			}
			if !forced {
				c = chooseCluster(in.Args, in.Op == ir.OpLoad)
			}
			resolveArgs(in, c)
			if in.Op == ir.OpMov && in.Args[0].IsReg() {
				if home, ok := p.homeOf(in.Args[0].Reg); ok && home != c {
					// A move whose source lives elsewhere IS an
					// inter-cluster move.
					in.Op = ir.OpXMov
					in.Cluster = int16(c)
					load[home]++
					noteUse(in.Args[0])
					noteDef(in.Dest, c)
					define(in, c)
					out = append(out, in)
					continue
				}
			}
			for i := range in.Args {
				orig := in.Args[i]
				in.Args[i] = localize(in.Args[i], c)
				noteUse(orig)
			}
			in.Cluster = int16(c)
			if in.Op == ir.OpLoad {
				memLoad[c]++
			} else {
				load[c]++
			}
			noteDef(in.Dest, c)
			define(in, c)
			out = append(out, in)
		}
	}
	// Loads never consumed inside this block take the balanced default,
	// resolved in program order for deterministic code generation.
	for _, r := range pendingOrder {
		if ld := pending[r]; ld != nil { // else already resolved at a use
			resolvePending(r, chooseCluster(ld.Args, true))
		}
	}
	p.starts = append(p.starts, int32(len(out)))

	// Leave the per-block tables as the next block expects them.
	for _, r := range touched {
		remaining[r], isLive[r] = 0, false
	}
	for _, m := range p.moves[firstMove:] {
		copies[int(m.src)*nc+int(m.cluster)] = 0
	}
	p.touched, p.pendingOrder, p.out = touched[:0], pendingOrder[:0], out
}
