package opt

import (
	"customfit/internal/idle"
	"customfit/internal/ir"
)

// workspace is what the passes of one Prepare, Optimize or Unroll call
// build for themselves and throw away: liveness sets, the cleaner's
// value tables, the per-block instruction lists under construction, the
// instructions of every pass but the last. It lasts one such call and is
// threaded through every pass of it, so a table grown for one block or
// pass serves the next; every pass leaves its tables reset, so nothing a
// block, pass or function learned reaches the one after.
//
// The ownership rule is the backend's (sched.Scratch), one level up: a
// slab is either owned by the function that points into it or a pass
// buffer whose instructions die with the pass (ir.Slab). The workspace
// keeps two pass buffers. A whole-function re-emit (Clean, Unroll)
// writes the one that holds none of the function's instructions and
// leaves every one of them in it, so the other one's are dead; a pass
// that keeps instruction pointers (LICM, IfConvert, Reassociate,
// Scalarize) appends to that live buffer. The buffer a re-emit resets is
// therefore always dead. Terminators are never cut from a buffer: every
// pass keeps them as they are, and one cut from a buffer would be
// overwritten while its block still ends in it. When the call is done
// the function moves into a slab of its own, exactly sized
// (ir.Func.Own), and both buffers serve the next call. Block instruction
// lists are allocations of their own. A workspace is not safe for
// concurrent use, and is never package state while it is in use.
//
// Every entry point takes its workspace from workspaces and hands it
// back when it is done (run), so a stream of compiles optimizes out of
// grown tables and buffers.
type workspace struct {
	// bufs are the two pass buffers; live is the index of the one the
	// last re-emit wrote (see reemit).
	bufs [2]ir.Slab
	live int

	lv Liveness // of the function as the running pass found it

	clean blockCleaner
	chain chainFinder // Reassociate
	regs  []uint8     // LICM's per-register notes
	arm   [2][]ir.Reg // IfConvert: per arm, 1 + the register's renamed final value
	wrote []ir.Reg    // IfConvert: the registers either arm writes

	// instruction lists under construction; a pass copies what it
	// built out to the block at its final length
	out, moved []*ir.Instr
}

// workspaces holds the workspaces no pass is using (see idle.List: the
// rule is sched.Scratch's).
var workspaces = idle.New("opt", func() *workspace { return new(workspace) })

// run is every entry point of the package: it borrows a workspace, runs
// pass over f in it and hands f back owning its instructions — also when
// the pass failed — before the workspace goes back to the idle ones.
func run(f *ir.Func, pass func(*workspace, *ir.Func)) {
	ws := workspaces.Get()
	defer ws.release()
	pass(ws, f)
	f.Own()
}

// release hands ws back to workspaces with every pointer into the
// function it last worked on dropped, through the capacity of the lists
// that carry them: an idle workspace keeps its tables and buffers and
// pins neither instruction, block nor memory reference of a finished
// request.
func (ws *workspace) release() {
	for i := range ws.bufs {
		ws.bufs[i].Forget()
	}
	ws.lv.Forget()
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
	ws.lv.Recompute(f)
	return &ws.lv
}

// slab is where a pass that keeps the function's instructions cuts the
// ones it adds: the live buffer.
func (ws *workspace) slab() *ir.Slab { return &ws.bufs[ws.live] }

// reemit hands a pass about to re-emit every instruction of the function
// — about instrs of them, with args operands — the buffer that holds
// none of them, reset, and makes it the live one.
func (ws *workspace) reemit(instrs, args int) *ir.Slab {
	ws.live ^= 1
	s := &ws.bufs[ws.live]
	s.Reset(instrs, args)
	return s
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
