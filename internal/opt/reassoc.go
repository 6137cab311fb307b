package opt

import "customfit/internal/ir"

// reassociate rebalances chains of integer additions inside each block
// into binary trees. Two's-complement addition is exactly associative,
// so the transformation is semantics-preserving bit-for-bit.
//
// This is the classic trace-scheduling-compiler treatment of unrolled
// reductions: `acc += in[i+k]*w[k]` unrolled by U produces a serial
// chain of U·taps additions whose operands (the multiplies) would
// otherwise all sit live waiting for their slot in the chain. Balancing
// the chain turns an O(n) critical path into O(log n) and lets each
// product be consumed promptly — both the ILP the paper's speedups
// require and register pressure a real machine can afford.
func (ws *workspace) reassociate(f *ir.Func) {
	lv := ws.liveness(f)
	// Chains are found among the instructions as the pass finds them,
	// which name only the registers that exist now.
	ws.chain.lv = lv
	zeroed(&ws.chain.regs, f.NumRegs(), 0)
	for bi, b := range f.Blocks {
		ws.reassociateBlock(f, bi, b)
	}
	ws.cleanFunc(f) // removes the now-dead original chain instructions
}

// MinReassocLeaves is the chain length worth rebalancing.
const MinReassocLeaves = 4

// chainFinder is Reassociate's view of one block: for every register
// the block mentions, how often it is defined and read, and where.
type chainFinder struct {
	lv     *Liveness
	bi     int
	instrs []*ir.Instr // the block, as found

	// regs is dense over the function's registers and all zero between
	// blocks: a block's entries are reset through the block itself.
	regs   []regNote
	leaves []ir.Operand
}

// regNote is what chainFinder keeps per register: where the block
// defines it and where it reads it, each 0 for nowhere, 1 + the block
// position when there is exactly one, or many. A chain link is defined
// once and read once.
type regNote struct{ def, use int32 }

const many = -1

// seen notes one more definition or read, at block position pos.
func seen(n *int32, pos int) {
	if *n == 0 {
		*n = int32(pos + 1)
	} else {
		*n = many
	}
}

// link returns the defining add when value r can be absorbed into a
// chain: defined once in this block by a register-register add,
// consumed exactly once, and dead outside the block.
func (c *chainFinder) link(r ir.Reg) (*ir.Instr, bool) {
	n := c.regs[r]
	if n.def <= 0 || n.use <= 0 || c.lv.liveOut(c.bi, r) {
		return nil, false
	}
	in := c.instrs[n.def-1]
	if in.Op != ir.OpAdd || !in.Args[0].IsReg() || !in.Args[1].IsReg() {
		return nil, false
	}
	return in, true
}

// isLink reports whether in is an inner add of a larger chain.
func (c *chainFinder) isLink(in *ir.Instr) bool {
	if in.Op != ir.OpAdd || in.Dest == ir.NoReg {
		return false
	}
	if link, ok := c.link(in.Dest); ok && link == in {
		// The single consumer must itself be an add for the value
		// to be part of a larger chain.
		return c.instrs[c.regs[in.Dest].use-1].Op == ir.OpAdd
	}
	return false
}

// gather appends the leaves of the chain ending in a to c.leaves.
func (c *chainFinder) gather(a ir.Operand) {
	if a.IsReg() {
		if link, ok := c.link(a.Reg); ok {
			c.gather(link.Args[0])
			c.gather(link.Args[1])
			return
		}
	}
	c.leaves = append(c.leaves, a)
}

func (ws *workspace) reassociateBlock(f *ir.Func, bi int, b *ir.Block) {
	c := &ws.chain
	c.bi, c.instrs = bi, b.Instrs
	for i, in := range b.Instrs {
		for _, a := range in.Args {
			if a.IsReg() {
				seen(&c.regs[a.Reg].use, i)
			}
		}
		if in.Op.HasDest() {
			seen(&c.regs[in.Dest].def, i)
		}
	}

	out, rebuilt := ws.out[:0], false
	for _, in := range b.Instrs {
		// Chain roots: adds that are not themselves links.
		if in.Op != ir.OpAdd || c.isLink(in) {
			out = append(out, in)
			continue
		}
		c.leaves = c.leaves[:0]
		c.gather(in.Args[0])
		c.gather(in.Args[1])
		if len(c.leaves) < MinReassocLeaves {
			out = append(out, in)
			continue
		}
		// Balanced pairwise reduction; the final sum keeps the root's
		// destination register. The absorbed link adds stay in place
		// and die (their only consumer is gone); Clean removes them.
		// Each level is written over the front of the one it halves.
		rebuilt = true
		level := c.leaves
		for len(level) > 1 {
			n := 0
			for i := 0; i+1 < len(level); i += 2 {
				var dst ir.Reg
				if len(level) == 2 {
					dst = in.Dest
				} else {
					dst = f.NewReg()
				}
				out = append(out, ws.slab().New(ir.OpAdd, dst, level[i], level[i+1]))
				level[n] = ir.R(dst)
				n++
			}
			if len(level)%2 == 1 {
				level[n] = level[len(level)-1]
				n++
			}
			level = level[:n]
		}
	}
	ws.out = out

	for _, in := range b.Instrs {
		for _, a := range in.Args {
			if a.IsReg() {
				c.regs[a.Reg] = regNote{}
			}
		}
		if in.Op.HasDest() {
			c.regs[in.Dest] = regNote{}
		}
	}
	if rebuilt {
		b.Instrs = owned(out)
	}
}
