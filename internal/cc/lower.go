package cc

import (
	"fmt"
	"math/bits"
	"strconv"

	"customfit/internal/ir"
	"customfit/internal/obs"
)

// Compile parses, checks and lowers CKC source, returning one ir.Func
// per kernel.
func Compile(src string) ([]*ir.Func, error) {
	return CompileSpan(nil, src)
}

// CompileSpan is Compile with its frontend phases (parse, check, lower)
// recorded as telemetry spans under sp (or as root spans when sp is
// nil and a collector is installed).
func CompileSpan(sp *obs.Span, src string) ([]*ir.Func, error) {
	ws := workspaces.Get()
	defer ws.release()
	psp := obs.Under(sp, "parse").Int("source_bytes", int64(len(src)))
	file, err := ws.parse(src)
	psp.End()
	if err != nil {
		return nil, err
	}
	ksp := obs.Under(sp, "check")
	err = ws.check(file)
	ksp.End()
	if err != nil {
		return nil, err
	}
	lsp := obs.Under(sp, "lower")
	fns, err := ws.lowerFile(file)
	lsp.Int("kernels", int64(len(fns))).End()
	return fns, err
}

// CompileKernel is Compile for sources containing a single kernel.
func CompileKernel(src string) (*ir.Func, error) {
	return CompileKernelSpan(nil, src)
}

// CompileKernelSpan is CompileKernel with telemetry spans under sp.
func CompileKernelSpan(sp *obs.Span, src string) (*ir.Func, error) {
	fns, err := CompileSpan(sp, src)
	if err != nil {
		return nil, err
	}
	if len(fns) != 1 {
		return nil, fmt.Errorf("cc: source defines %d kernels, want 1", len(fns))
	}
	return fns[0], nil
}

// LowerFile lowers every kernel in a checked file to IR. Each function
// gets its own MemRef instances for the file's globals; the simulator
// binds them by name.
func LowerFile(f *File) ([]*ir.Func, error) {
	ws := workspaces.Get()
	defer ws.release()
	return ws.lowerFile(f)
}

// lowerFile is LowerFile in ws. Each function's instructions lie in the
// workspace's slab until the function owns them, before it verifies.
func (ws *workspace) lowerFile(f *File) ([]*ir.Func, error) {
	defer ws.slab.Forget()
	var out []*ir.Func
	for _, k := range f.Kernels {
		fn, err := ws.lowerKernel(f, k)
		if err != nil {
			return nil, err
		}
		ws.presizeCFG(fn)
		fn.RemoveUnreachable()
		fn.Own()
		if err := fn.Verify(); err != nil {
			return nil, fmt.Errorf("cc: internal error lowering %s: %w", k.Name, err)
		}
		out = append(out, fn)
	}
	return out, nil
}

// presizeCFG gives each of fn's blocks predecessor and successor lists
// with room for all its edges, cut from one array, so that computing the
// CFG makes no list of its own.
func (ws *workspace) presizeCFG(fn *ir.Func) {
	edges := 0
	for _, b := range fn.Blocks {
		if t := b.Terminator(); t != nil {
			edges += len(t.Targets)
			for _, s := range t.Targets {
				ws.preds[s]++
			}
		}
	}
	all := make([]*ir.Block, 2*edges)
	for _, b := range fn.Blocks {
		if t := b.Terminator(); t != nil && len(t.Targets) > 0 {
			n := len(t.Targets)
			b.Succs, all = all[:0:n], all[n:]
		}
		if n := int(ws.preds[b]); n > 0 {
			b.Preds, all = all[:0:n], all[n:]
		}
	}
	clear(ws.preds)
}

type lsymKind uint8

const (
	lScalar lsymKind = iota
	lArray
	lConstVal // full-unroll induction binding
)

type lsym struct {
	kind lsymKind
	reg  ir.Reg     // lScalar home register
	mem  *ir.MemRef // lArray
	val  int32      // lConstVal
}

// MaxLoweredInstrs bounds the instructions one kernel lowers to, and the
// copies of a loop body nested constant-trip loops make. Only full
// unrolling multiplies code, nested loops by each trip count in turn,
// and what it makes the verifier's dataflow pays for again, per block
// and register. The suite's largest kernel lowers to about 2 500
// instructions, and opt.MaxUnrolledOps caps an unrolled loop body at
// 4 096: a source that would unroll past either bound is refused instead
// of lowered until memory or patience runs out.
const MaxLoweredInstrs = 1 << 14

// lowerer lowers one kernel in a workspace. n counts the instructions
// it made, and copies is how many times the statement being lowered is,
// the product of the enclosing constant loops' trip counts.
//
// Blocks are filled one after another: once the lowerer has moved on
// from a block it never appends to it again. So the current block's
// instructions collect in open, and leaving the block moves them into a
// list of their own, exactly sized, cut from the slab.
type lowerer struct {
	*workspace
	f      *ir.Func
	n      int
	copies int
	cur    *ir.Block
	memSeq int
}

// add appends in to the current block.
func (lw *lowerer) add(in *ir.Instr) *ir.Instr {
	lw.n++
	lw.open = append(lw.open, in)
	return in
}

// enter makes b, a block nothing has been appended to, the current one,
// and closes the block before it.
func (lw *lowerer) enter(b *ir.Block) {
	if lw.cur != nil && len(lw.open) > 0 {
		lw.cur.Instrs = lw.slab.List(len(lw.open))
		copy(lw.cur.Instrs, lw.open)
		clear(lw.open)
		lw.open = lw.open[:0]
	}
	lw.cur = b
}

// terminated reports whether the current block ends in a terminator.
func (lw *lowerer) terminated() bool {
	n := len(lw.open)
	return n > 0 && lw.open[n-1].Op.IsTerminator()
}

// lowerKernel lowers k, a kernel of file, into the workspace's slab.
func (ws *workspace) lowerKernel(file *File, k *Kernel) (*ir.Func, error) {
	ws.slab.Reset(0, 0)
	ws.open, ws.targets.buf = ws.open[:0], ws.targets.buf[:0]
	ws.lsyms.pop(0)
	lw := &lowerer{workspace: ws, f: ir.NewFunc(k.Name), copies: 1}
	if n := len(file.Globals) + len(k.Params); n > 0 {
		lw.f.Mems = make([]*ir.MemRef, 0, n)
	}

	for _, g := range file.Globals {
		size, _ := EvalConst(g.Size)
		mem := &ir.MemRef{
			Name:   g.Name,
			Space:  ir.L1,
			Elem:   g.Type.Elem(),
			Size:   int(size),
			Global: true,
			Const:  g.IsConst,
			Init:   constInits(g),
		}
		lw.f.AddMem(mem)
		lw.lsyms.push(g.Name, lsym{kind: lArray, mem: mem})
	}

	for _, p := range k.Params {
		if p.IsArray {
			mem := &ir.MemRef{
				Name:    p.Name,
				Space:   ir.L2,
				Elem:    p.Type.Elem(),
				IsParam: true,
			}
			lw.f.AddMem(mem)
			lw.lsyms.push(p.Name, lsym{kind: lArray, mem: mem})
		} else {
			pp := lw.f.AddScalarParam(p.Name)
			lw.lsyms.push(p.Name, lsym{kind: lScalar, reg: pp.Reg})
		}
	}

	lw.enter(lw.f.NewBlock("entry"))
	if err := lw.block(k.Body); err != nil {
		return nil, err
	}
	if !lw.terminated() {
		lw.branch(ir.OpRet, nil)
	}
	lw.enter(nil)
	return lw.f, nil
}

func constInits(d *VarDecl) []int32 {
	if len(d.Inits) == 0 {
		return nil
	}
	out := make([]int32, len(d.Inits))
	for i, e := range d.Inits {
		v, _ := EvalConst(e)
		out[i] = d.Type.Elem().Truncate(v)
	}
	return out
}

// emit appends a pure instruction, constant-folding when all operands
// are immediates, and returns the result operand.
func (lw *lowerer) emit(op ir.Op, args ...ir.Operand) ir.Operand {
	allImm := true
	for _, a := range args {
		if !a.IsImm() {
			allImm = false
			break
		}
	}
	if allImm {
		var vals [3]int32 // no pure op takes more
		for i, a := range args {
			vals[i] = a.Imm
		}
		return ir.Imm(op.Eval3(vals[0], vals[1], vals[2]))
	}
	dest := lw.f.NewReg()
	lw.add(lw.slab.New(op, dest, args...))
	return ir.R(dest)
}

// emitTo appends `mov dest, src` (no folding; dest is a home register).
func (lw *lowerer) emitTo(dest ir.Reg, src ir.Operand) {
	lw.add(lw.slab.New(ir.OpMov, dest, src))
}

// branch appends a terminator of op to the current block, branching to
// targets.
func (lw *lowerer) branch(op ir.Op, targets []*ir.Block, args ...ir.Operand) {
	in := lw.add(lw.slab.New(op, ir.NoReg, args...))
	if len(targets) > 0 {
		in.Targets = lw.targets.take(len(targets))
		copy(in.Targets, targets)
	}
}

func (lw *lowerer) block(b *BlockStmt) error {
	scope := lw.lsyms.mark()
	for _, s := range b.Stmts {
		if err := lw.stmt(s); err != nil {
			return err
		}
	}
	lw.lsyms.pop(scope)
	return nil
}

func (lw *lowerer) stmt(s Stmt) error {
	switch st := s.(type) {
	case *BlockStmt:
		return lw.block(st)
	case *DeclStmt:
		return lw.decl(st.Decl)
	case *AssignStmt:
		return lw.assign(st)
	case *IfStmt:
		return lw.ifStmt(st)
	case *ForStmt:
		return lw.forStmt(st)
	case *ReturnStmt:
		lw.branch(ir.OpRet, nil)
		lw.enter(lw.f.NewBlock("dead"))
		return nil
	}
	return fmt.Errorf("cc: unknown statement %T", s)
}

func (lw *lowerer) decl(d *VarDecl) error {
	if d.IsArray {
		size, _ := EvalConst(d.Size)
		name := d.Name
		if lw.f.MemByName(name) != nil {
			lw.memSeq++
			name = d.Name + "$" + strconv.Itoa(lw.memSeq)
		}
		mem := &ir.MemRef{
			Name:  name,
			Space: ir.L1,
			Elem:  d.Type.Elem(),
			Size:  int(size),
			Const: d.IsConst,
			Init:  constInits(d),
		}
		lw.f.AddMem(mem)
		lw.lsyms.push(d.Name, lsym{kind: lArray, mem: mem})
		return nil
	}
	home := lw.f.NewReg()
	init := ir.Imm(0) // CKC zero-initializes scalars (documented divergence from C)
	if d.Init != nil {
		v, err := lw.expr(d.Init)
		if err != nil {
			return err
		}
		init = v
	}
	lw.emitTo(home, init)
	lw.lsyms.push(d.Name, lsym{kind: lScalar, reg: home})
	return nil
}

func (lw *lowerer) assign(st *AssignStmt) error {
	sym, ok := lw.lsyms.lookup(st.LHS.Name)
	if !ok {
		return errf(st.LHS.Pos, "undeclared variable %q", st.LHS.Name)
	}
	// Compute the new value. Compound assignment reads the old value.
	var old ir.Operand
	var idx ir.Operand
	if st.LHS.Index != nil {
		v, err := lw.expr(st.LHS.Index)
		if err != nil {
			return err
		}
		idx = v
	}
	if st.Op != ASSIGN {
		if st.LHS.Index == nil {
			old = ir.R(sym.reg)
		} else {
			old = lw.load(sym.mem, idx)
		}
	}
	rhs, err := lw.expr(st.RHS)
	if err != nil {
		return err
	}
	val := rhs
	if st.Op != ASSIGN {
		val, err = lw.binOp(compoundBase(st.Op), old, rhs, st.Pos)
		if err != nil {
			return err
		}
	}
	if st.LHS.Index == nil {
		lw.emitTo(sym.reg, val)
		return nil
	}
	in := lw.add(lw.slab.New(ir.OpStore, ir.NoReg, idx, val))
	in.Mem, in.Elem = sym.mem, sym.mem.Elem
	return nil
}

func compoundBase(k Kind) Kind {
	switch k {
	case PLUSEQ:
		return PLUS
	case MINUSEQ:
		return MINUS
	case STAREQ:
		return STAR
	case SLASHEQ:
		return SLASH
	case PERCENTEQ:
		return PERCENT
	case SHLEQ:
		return SHL
	case SHREQ:
		return SHR
	case ANDEQ:
		return AMP
	case OREQ:
		return PIPE
	case XOREQ:
		return CARET
	}
	panic(fmt.Sprintf("cc: not a compound assignment op: %s", k))
}

func (lw *lowerer) load(mem *ir.MemRef, idx ir.Operand) ir.Operand {
	dest := lw.f.NewReg()
	in := lw.add(lw.slab.New(ir.OpLoad, dest, idx))
	in.Mem, in.Elem = mem, mem.Elem
	return ir.R(dest)
}

func (lw *lowerer) ifStmt(st *IfStmt) error {
	cond, err := lw.expr(st.Cond)
	if err != nil {
		return err
	}
	if cond.IsImm() {
		// Statically decided branch: lower only the taken arm.
		if cond.Imm != 0 {
			return lw.block(st.Then)
		}
		if st.Else != nil {
			return lw.block(st.Else)
		}
		return nil
	}
	thenB := lw.f.NewBlock("then")
	join := lw.f.NewBlock("join")
	elseB := join
	if st.Else != nil {
		elseB = lw.f.NewBlock("else")
	}
	lw.branch(ir.OpCBr, []*ir.Block{thenB, elseB}, cond)
	lw.enter(thenB)
	if err := lw.block(st.Then); err != nil {
		return err
	}
	if !lw.terminated() {
		lw.branch(ir.OpBr, []*ir.Block{join})
	}
	if st.Else != nil {
		lw.enter(elseB)
		if err := lw.block(st.Else); err != nil {
			return err
		}
		if !lw.terminated() {
			lw.branch(ir.OpBr, []*ir.Block{join})
		}
	}
	lw.enter(join)
	return nil
}

func (lw *lowerer) forStmt(st *ForStmt) error {
	sym, ok := lw.lsyms.lookup(st.Var)
	if !ok || sym.kind != lScalar {
		return errf(st.Pos, "loop variable %q must be a declared scalar", st.Var)
	}
	bound, le := loopBoundExpr(st)
	initV, initConst := EvalConst(st.Init)
	boundV, boundConst := EvalConst(bound)
	if initConst && boundConst {
		trip := int(boundV - initV)
		if le {
			trip++
		}
		if trip <= MaxFullUnroll {
			return lw.fullUnroll(st, sym.reg, initV, trip)
		}
	}
	return lw.pixelLoop(st, sym.reg, bound, le)
}

func loopBoundExpr(st *ForStmt) (Expr, bool) {
	be := st.Cond.(*BinaryExpr) // shape validated by Check
	return be.R, be.Op == LE
}

// fullUnroll expands a constant-trip loop by binding the induction
// variable to each constant value in turn. The loop variable's home
// register home is left holding its final value, matching C semantics.
func (lw *lowerer) fullUnroll(st *ForStmt, home ir.Reg, init int32, trip int) error {
	if lw.copies*trip > MaxLoweredInstrs {
		return errf(st.Pos, "constant-trip loops nest to more than %d copies of a body", MaxLoweredInstrs)
	}
	lw.copies *= trip
	defer func() { lw.copies /= trip }()
	scope := lw.lsyms.mark()
	bind := lw.lsyms.push(st.Var, lsym{kind: lConstVal})
	for k := 0; k < trip; k++ {
		lw.lsyms.stack[bind].sym.val = init + int32(k)
		if err := lw.block(st.Body); err != nil {
			return err
		}
		if lw.n > MaxLoweredInstrs {
			return errf(st.Pos, "constant-trip loops unroll to more than %d instructions", MaxLoweredInstrs)
		}
	}
	lw.lsyms.pop(scope)
	// Final value visible after the loop.
	lw.emitTo(home, ir.Imm(init+int32(trip)))
	return nil
}

// pixelLoop lowers the kernel's runtime-trip streaming loop over the
// induction variable with home register iv in rotated form and records
// LoopInfo for the unroller and scheduler.
func (lw *lowerer) pixelLoop(st *ForStmt, iv ir.Reg, bound Expr, le bool) error {
	if lw.f.Loop != nil {
		return errf(st.Pos, "kernel has more than one runtime-bound loop")
	}
	limit, err := lw.expr(bound)
	if err != nil {
		return err
	}
	if le {
		limit = lw.emit(ir.OpAdd, limit, ir.Imm(1))
	}
	initV, err := lw.expr(st.Init)
	if err != nil {
		return err
	}
	lw.emitTo(iv, initV)

	pre := lw.cur
	body := lw.f.NewBlock("loop")
	exit := lw.f.NewBlock("exit")
	guard := lw.emit(ir.OpCmpLT, ir.R(iv), limit)
	lw.appendCBr(guard, body, exit)

	lw.enter(body)
	if err := lw.block(st.Body); err != nil {
		return err
	}
	if lw.terminated() {
		return errf(st.Pos, "return inside the pixel loop is not supported")
	}
	latch := lw.cur
	// Control tail: i' = i + 1; i = i'; t = i' < limit; cbr t, body, exit.
	nxt := lw.emit(ir.OpAdd, ir.R(iv), ir.Imm(1))
	lw.emitTo(iv, nxt)
	back := lw.emit(ir.OpCmpLT, nxt, limit)
	lw.appendCBr(back, body, exit)

	lw.f.Loop = &ir.LoopInfo{
		Preheader: pre,
		Header:    body,
		Latch:     latch,
		Exit:      exit,
		IndVar:    iv,
		Limit:     limit,
		Step:      1,
	}
	lw.enter(exit)
	return nil
}

func (lw *lowerer) appendCBr(cond ir.Operand, t, f *ir.Block) {
	if cond.IsImm() {
		target := f
		if cond.Imm != 0 {
			target = t
		}
		lw.branch(ir.OpBr, []*ir.Block{target})
		return
	}
	lw.branch(ir.OpCBr, []*ir.Block{t, f}, cond)
}

// expr lowers an expression to an operand (immediate when constant).
func (lw *lowerer) expr(e Expr) (ir.Operand, error) {
	switch ex := e.(type) {
	case *IntLit:
		return ir.Imm(ex.Val), nil
	case *VarRef:
		sym, ok := lw.lsyms.lookup(ex.Name)
		if !ok {
			return ir.Operand{}, errf(ex.Pos, "undeclared variable %q", ex.Name)
		}
		switch sym.kind {
		case lConstVal:
			return ir.Imm(sym.val), nil
		case lScalar:
			return ir.R(sym.reg), nil
		}
		return ir.Operand{}, errf(ex.Pos, "array %q used without an index", ex.Name)
	case *IndexExpr:
		sym, ok := lw.lsyms.lookup(ex.Name)
		if !ok || sym.kind != lArray {
			return ir.Operand{}, errf(ex.Pos, "undeclared array %q", ex.Name)
		}
		idx, err := lw.expr(ex.Index)
		if err != nil {
			return ir.Operand{}, err
		}
		return lw.load(sym.mem, idx), nil
	case *BinaryExpr:
		l, err := lw.expr(ex.L)
		if err != nil {
			return ir.Operand{}, err
		}
		r, err := lw.expr(ex.R)
		if err != nil {
			return ir.Operand{}, err
		}
		return lw.binOp(ex.Op, l, r, ex.Pos)
	case *UnaryExpr:
		x, err := lw.expr(ex.X)
		if err != nil {
			return ir.Operand{}, err
		}
		switch ex.Op {
		case MINUS:
			return lw.emit(ir.OpSub, ir.Imm(0), x), nil
		case TILDE:
			return lw.emit(ir.OpXor, x, ir.Imm(-1)), nil
		case BANG:
			return lw.emit(ir.OpCmpEQ, x, ir.Imm(0)), nil
		}
		return ir.Operand{}, errf(ex.Pos, "unsupported unary operator %s", ex.Op)
	case *CondExpr:
		c, err := lw.expr(ex.Cond)
		if err != nil {
			return ir.Operand{}, err
		}
		t, err := lw.expr(ex.Then)
		if err != nil {
			return ir.Operand{}, err
		}
		f, err := lw.expr(ex.Else)
		if err != nil {
			return ir.Operand{}, err
		}
		return lw.emit(ir.OpSelect, c, t, f), nil
	case *CastExpr:
		x, err := lw.expr(ex.X)
		if err != nil {
			return ir.Operand{}, err
		}
		switch ex.Type {
		case TInt:
			return x, nil
		case TByte:
			return lw.emit(ir.OpAnd, x, ir.Imm(0xff)), nil
		case TUShort:
			return lw.emit(ir.OpAnd, x, ir.Imm(0xffff)), nil
		case TSByte:
			t := lw.emit(ir.OpShl, x, ir.Imm(24))
			return lw.emit(ir.OpShrA, t, ir.Imm(24)), nil
		case TShort:
			t := lw.emit(ir.OpShl, x, ir.Imm(16))
			return lw.emit(ir.OpShrA, t, ir.Imm(16)), nil
		}
		return ir.Operand{}, errf(ex.Pos, "unsupported cast")
	case *CallExpr:
		return lw.builtin(ex)
	}
	return ir.Operand{}, fmt.Errorf("cc: unknown expression %T", e)
}

func (lw *lowerer) builtin(ex *CallExpr) (ir.Operand, error) {
	var argv [3]ir.Operand // clamp's, the most any builtin takes
	args := argv[:0]
	for _, a := range ex.Args {
		v, err := lw.expr(a)
		if err != nil {
			return ir.Operand{}, err
		}
		args = append(args, v)
	}
	switch ex.Name {
	case "min":
		c := lw.emit(ir.OpCmpLT, args[0], args[1])
		return lw.emit(ir.OpSelect, c, args[0], args[1]), nil
	case "max":
		c := lw.emit(ir.OpCmpGT, args[0], args[1])
		return lw.emit(ir.OpSelect, c, args[0], args[1]), nil
	case "abs":
		neg := lw.emit(ir.OpSub, ir.Imm(0), args[0])
		c := lw.emit(ir.OpCmpLT, args[0], ir.Imm(0))
		return lw.emit(ir.OpSelect, c, neg, args[0]), nil
	case "clamp":
		cLo := lw.emit(ir.OpCmpLT, args[0], args[1])
		lo := lw.emit(ir.OpSelect, cLo, args[1], args[0])
		cHi := lw.emit(ir.OpCmpGT, lo, args[2])
		return lw.emit(ir.OpSelect, cHi, args[2], lo), nil
	}
	return ir.Operand{}, errf(ex.Pos, "unknown function %q", ex.Name)
}

// binOp lowers a binary operation, handling the operators that need
// expansion: logical and/or normalize to booleans, division and modulo
// by power-of-two constants expand to shift sequences with the C
// round-toward-zero fixup.
func (lw *lowerer) binOp(op Kind, l, r ir.Operand, pos Pos) (ir.Operand, error) {
	switch op {
	case PLUS:
		return lw.emit(ir.OpAdd, l, r), nil
	case MINUS:
		return lw.emit(ir.OpSub, l, r), nil
	case STAR:
		return lw.emit(ir.OpMul, l, r), nil
	case SHL:
		return lw.emit(ir.OpShl, l, r), nil
	case SHR:
		// C's >> on signed int is arithmetic on every relevant target.
		return lw.emit(ir.OpShrA, l, r), nil
	case AMP:
		return lw.emit(ir.OpAnd, l, r), nil
	case PIPE:
		return lw.emit(ir.OpOr, l, r), nil
	case CARET:
		return lw.emit(ir.OpXor, l, r), nil
	case EQ:
		return lw.emit(ir.OpCmpEQ, l, r), nil
	case NE:
		return lw.emit(ir.OpCmpNE, l, r), nil
	case LT:
		return lw.emit(ir.OpCmpLT, l, r), nil
	case LE:
		return lw.emit(ir.OpCmpLE, l, r), nil
	case GT:
		return lw.emit(ir.OpCmpGT, l, r), nil
	case GE:
		return lw.emit(ir.OpCmpGE, l, r), nil
	case ANDAND:
		lb := lw.toBool(l)
		rb := lw.toBool(r)
		return lw.emit(ir.OpAnd, lb, rb), nil
	case OROR:
		lb := lw.toBool(l)
		rb := lw.toBool(r)
		return lw.emit(ir.OpOr, lb, rb), nil
	case SLASH, PERCENT:
		if !r.IsImm() || r.Imm <= 0 || r.Imm&(r.Imm-1) != 0 {
			return ir.Operand{}, errf(pos, "division/modulo only by positive power-of-two constants")
		}
		return lw.divPow2(op, l, r.Imm), nil
	}
	return ir.Operand{}, errf(pos, "unsupported binary operator %s", op)
}

// toBool normalizes a value to 0/1 for logical connectives.
func (lw *lowerer) toBool(x ir.Operand) ir.Operand {
	return lw.emit(ir.OpCmpNE, x, ir.Imm(0))
}

// divPow2 expands x / 2^k (or x % 2^k) with C truncation semantics:
//
//	bias = (x >> 31) & (2^k - 1)   // 2^k-1 if x negative, else 0
//	q    = (x + bias) >> k
//	rem  = x - (q << k)
func (lw *lowerer) divPow2(op Kind, x ir.Operand, c int32) ir.Operand {
	k := int32(bits.TrailingZeros32(uint32(c)))
	if k == 0 { // division by 1
		if op == SLASH {
			return x
		}
		return ir.Imm(0)
	}
	sign := lw.emit(ir.OpShrA, x, ir.Imm(31))
	bias := lw.emit(ir.OpAnd, sign, ir.Imm(c-1))
	biased := lw.emit(ir.OpAdd, x, bias)
	q := lw.emit(ir.OpShrA, biased, ir.Imm(k))
	if op == SLASH {
		return q
	}
	back := lw.emit(ir.OpShl, q, ir.Imm(k))
	return lw.emit(ir.OpSub, x, back)
}
