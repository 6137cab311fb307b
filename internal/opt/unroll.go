package opt

import (
	"fmt"

	"customfit/internal/ir"
)

// MaxUnrolledOps caps the size of an unrolled loop body; unroll factors
// that would exceed it are rejected, as a production compiler's
// unrolling heuristics would.
const MaxUnrolledOps = 4096

// Unroll rewrites the kernel's pixel loop with unroll factor u:
//
//	pre:  g  = i+(u-1) < limit            ; cbr g, main, rempre
//	main: body×u ...; g' = i+(u-1) < limit; cbr g', main, rempre
//	rem:  original rotated loop handling the leftover iterations
//
// Each body copy is a verbatim clone: the induction variable's home
// register chains the copies together, and the intermediate increment
// and test operations of the inner copies become dead after Clean. The
// explorer raises u until the register allocator reports spilling —
// the paper's "when the compiler started spilling register contents for
// a given unrolling, we stopped considering that unrolling factor".
func Unroll(f *ir.Func, u int) (err error) {
	run(f, func(ws *workspace, f *ir.Func) { err = ws.unroll(f, u, Passes{}) })
	return err
}

func (ws *workspace) unroll(f *ir.Func, u int, ps Passes) error {
	if u < 1 {
		return fmt.Errorf("opt: unroll factor %d", u)
	}
	if u == 1 {
		return nil
	}
	l := f.Loop
	if l == nil {
		return fmt.Errorf("opt: %s has no pixel loop", f.Name)
	}
	if !l.SingleBlock() {
		return fmt.Errorf("opt: %s pixel loop body is not a single block (if-conversion failed?)", f.Name)
	}
	h := l.Header
	body := h.Body()
	// Divide rather than multiply: a huge u wraps len(body)*u around.
	if u > MaxUnrolledOps/max(len(body), 1) {
		return fmt.Errorf("opt: unroll %d×%d ops exceeds budget %d", u, len(body), MaxUnrolledOps)
	}
	term := h.Terminator()
	if term.Op != ir.OpCBr || term.Targets[0] != h {
		return fmt.Errorf("opt: %s pixel loop is not in rotated form", f.Name)
	}

	// Unrolling re-emits the whole function into the buffer that holds
	// none of it (see workspace): the body u times into the main block
	// and once into the remainder, the guards, and every other block's
	// instructions as they are, so that nothing live stays behind in the
	// buffer the Clean below resets. The old header is left out: once
	// the preheader's guard is replaced nothing reaches it.
	bodyArgs := 0
	for _, in := range body {
		bodyArgs += len(in.Args)
	}
	instrs, args := f.Size()
	s := ws.reemit(instrs+u*len(body)+8, args+u*bodyArgs+16)
	for _, b := range f.Blocks {
		if b == h {
			continue
		}
		for i, in := range b.Instrs {
			if !in.Op.IsTerminator() {
				b.Instrs[i] = s.Clone(in, nil)
			}
		}
	}
	main := f.NewBlock("unroll")
	remPre := f.NewBlock("rempre")

	// Terminators are not cut from the buffer: they outlive every later
	// Clean, which keeps them as they are.
	cbr := func(cond ir.Operand, taken, fallthru *ir.Block) *ir.Instr {
		return &ir.Instr{Op: ir.OpCBr, Dest: ir.NoReg, Args: []ir.Operand{cond},
			Targets: []*ir.Block{taken, fallthru}}
	}

	// Guard helper: g = (i + u-1) < limit, evaluated on the given block.
	emitGuard := func(b *ir.Block) ir.Operand {
		t := f.NewReg()
		b.Append(s.New(ir.OpAdd, t, ir.R(l.IndVar), ir.Imm(int32(u-1))))
		g := f.NewReg()
		b.Append(s.New(ir.OpCmpLT, g, ir.R(t), l.Limit))
		return ir.R(g)
	}

	// Rewire the preheader: replace its old guard branch with the
	// stronger "at least u iterations left" test.
	pre := l.Preheader
	preTerm := pre.Terminator()
	if preTerm == nil || preTerm.Op != ir.OpCBr {
		return fmt.Errorf("opt: %s preheader lacks a guard branch", f.Name)
	}
	pre.Instrs = pre.Instrs[:len(pre.Instrs)-1]
	g0 := emitGuard(pre)
	pre.Append(cbr(g0, main, remPre))

	// Main block: u copies of the body (including each copy's increment
	// and now-dead test), then the back-edge guard.
	main.Instrs = make([]*ir.Instr, 0, u*len(body)+3)
	for k := 0; k < u; k++ {
		for _, in := range body {
			main.Append(s.Clone(in, nil))
		}
	}
	gb := emitGuard(main)
	main.Append(cbr(gb, main, remPre))

	// Remainder: re-test, then run the original rotated loop.
	rem := f.NewBlock("rem")
	gr := f.NewReg()
	remPre.Append(s.New(ir.OpCmpLT, gr, ir.R(l.IndVar), l.Limit))
	remPre.Append(cbr(ir.R(gr), rem, l.Exit))
	rem.Instrs = make([]*ir.Instr, 0, len(body)+2)
	for _, in := range body {
		rem.Append(s.Clone(in, nil))
	}
	rt := f.NewReg()
	rem.Append(s.New(ir.OpCmpLT, rt, ir.R(l.IndVar), l.Limit))
	rem.Append(cbr(ir.R(rt), rem, l.Exit))

	f.Loop = &ir.LoopInfo{
		Preheader: pre,
		Header:    main,
		Latch:     main,
		Exit:      remPre,
		IndVar:    l.IndVar,
		Limit:     l.Limit,
		Step:      l.Step * int32(u),
	}
	f.RemoveUnreachable()
	ws.cleanFunc(f)
	// Unrolling concatenates the per-copy reduction chains into one long
	// serial chain; rebalance it so the copies can actually overlap.
	if !ps.NoReassociation {
		ws.reassociate(f)
	}
	return f.Verify()
}
