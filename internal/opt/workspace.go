package opt

import (
	"customfit/internal/idle"
	"customfit/internal/ir"
)

// workspace is what the passes of one Prepare, Optimize or Unroll call
// build for themselves and throw away: liveness sets, the cleaner's
// value tables, the per-block instruction lists under construction. It
// lasts one such call and is threaded through every pass of it, so a
// table grown for one block or pass serves the next; every pass leaves
// its tables reset, so nothing a block, pass or function learned reaches
// the one after.
//
// The ownership rule is the backend's (sched.Scratch), one level up:
// what a pass builds and the next throws away lives here; what the
// function keeps does not. Emitted instructions and their operands are
// cut from slab — heap arrays the function's instructions keep alive,
// sized from the function and never reused — and every block's final
// instruction list is an allocation of its own. The zero value is ready
// to use; a workspace is not safe for concurrent use, and is never
// package state while it is in use.
//
// Prepare takes its workspace from workspaces and hands it back when it
// is done, so a stream of one-shot compiles optimizes out of grown
// tables; Optimize, Unroll and the exported single passes, which the
// explorer calls once per kernel and factor, make their own.
type workspace struct {
	slab ir.Slab

	lv    Liveness // of the function as the running pass found it
	lvTmp []uint64

	clean blockCleaner
	chain chainFinder // Reassociate
	regs  []uint8     // LICM's per-register notes
	arm   [2][]ir.Reg // IfConvert: per arm, 1 + the register's renamed final value
	wrote []ir.Reg    // IfConvert: the registers either arm writes

	// instruction lists under construction; a pass copies what it
	// built out to the block at its final length
	out, moved []*ir.Instr
}

// workspaces holds the workspaces no Prepare is using (see idle.List:
// the rule is sched.Scratch's).
var workspaces = idle.New("opt", func() *workspace { return new(workspace) })

// release hands ws back to workspaces with every pointer into the
// function it last worked on dropped, through the capacity of the lists
// that carry them: an idle workspace keeps its tables and pins neither
// instruction, block, memory reference nor slab of a finished request.
func (ws *workspace) release() {
	ws.slab = ir.Slab{}
	idle.Wipe(ws.lv.blocks)
	idle.Wipe(ws.out)
	idle.Wipe(ws.moved)
	c := &ws.clean
	c.f, c.slab = nil, nil
	idle.Wipe(c.defOf)
	idle.Wipe(c.out)
	idle.Wipe(c.pre)
	idle.Wipe(c.movs)
	// The cleaner's maps go with the request: they are cleared block by
	// block at a cost that follows their capacity, so each function gets
	// maps sized for its own largest block (cleanFunc), not for the
	// largest the workspace has seen.
	c.cse, c.epoch, c.canonAddr = nil, nil, nil
	ws.chain.lv = nil
	idle.Wipe(ws.chain.instrs)
	workspaces.Put(ws)
}

// liveness recomputes the workspace's liveness for f. The result is
// valid until the next call.
func (ws *workspace) liveness(f *ir.Func) *Liveness {
	ws.lv.compute(f, &ws.lvTmp, f.NumInstrs())
	return &ws.lv
}

// expect sizes the slab for a pass about to re-emit f (see
// ir.Slab.Expect): the function's own instruction and operand counts.
func (ws *workspace) expect(f *ir.Func) {
	instrs, args := 0, 0
	for _, b := range f.Blocks {
		instrs += len(b.Instrs)
		for _, in := range b.Instrs {
			args += len(in.Args)
		}
	}
	ws.slab.Expect(instrs, args)
}

// zeroed returns *buf resized to n zeroed entries and stores it back,
// reusing the array when it is large enough. A new array has room for
// spare entries more: the register-indexed tables pass f.NumInstrs(),
// because every Clean renames the function into fresh temporaries —
// about one per instruction — and exact sizing would reallocate them
// pass after pass.
func zeroed[T any](buf *[]T, n, spare int) []T {
	s := *buf
	if cap(s) < n {
		s = make([]T, n, n+spare)
	} else {
		s = s[:n]
		clear(s)
	}
	*buf = s
	return s
}

// reserve empties *buf and makes sure it can take n entries without
// growing: a list built per block is sized from the block instead of
// doubling its way up.
func reserve[T any](buf *[]T, n int) {
	if cap(*buf) < n {
		*buf = make([]T, 0, n)
	}
	*buf = (*buf)[:0]
}

// owned returns a copy of list at its exact length: the form in which a
// pass hands a block the instruction list it built in the workspace.
func owned(list []*ir.Instr) []*ir.Instr {
	return append(make([]*ir.Instr, 0, len(list)), list...)
}
