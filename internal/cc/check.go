package cc

import (
	"fmt"
	"slices"
)

// MaxFullUnroll is the largest constant trip count the frontend fully
// unrolls at lowering time. Constant-trip loops up to this bound (color
// channels, filter taps, DCT lanes) disappear into straight-line code;
// anything larger, or any loop with a runtime bound, must be the
// kernel's single streaming "pixel loop".
const MaxFullUnroll = 64

// Check validates a parsed CKC file: name resolution, scalar/array
// usage, constant restrictions (division only by power-of-two literals),
// and the canonical loop structure the backend depends on (exactly one
// runtime-trip pixel loop per kernel, at the top level of the body).
func Check(f *File) error {
	ws := workspaces.Get()
	defer ws.release()
	return ws.check(f)
}

// check is Check in ws.
func (ws *workspace) check(f *File) error {
	c := &checker{workspace: ws}
	for _, g := range f.Globals {
		if err := c.checkGlobal(g); err != nil {
			return err
		}
	}
	for _, k := range f.Kernels {
		if err := c.checkKernel(k); err != nil {
			return err
		}
	}
	return nil
}

type symKind uint8

const (
	scalarSym symKind = iota
	arraySym
)

type csym struct {
	kind    symKind
	isConst bool
	size    int // arrays; 0 = unsized parameter
}

// checker checks a file in a workspace's symbol stack (csyms) and list
// of frozen variables.
type checker struct {
	*workspace
	// pixelLoops counts runtime-trip loops in the current kernel.
	pixelLoops int
}

// freeze forbids assigning name inside the loop body being checked, and
// thaw lifts that. frozen is a set: a name frozen by two enclosing loops
// is thawed by the inner one's end.
func (c *checker) freeze(name string) {
	if !slices.Contains(c.frozen, name) {
		c.frozen = append(c.frozen, name)
	}
}

func (c *checker) thaw(name string) {
	if i := slices.Index(c.frozen, name); i >= 0 {
		c.frozen = slices.Delete(c.frozen, i, i+1)
	}
}

func (c *checker) checkGlobal(d *VarDecl) error {
	if !d.IsArray {
		return errf(d.Pos, "top-level declarations must be arrays (scalar %q)", d.Name)
	}
	if err := c.checkArrayDecl(d); err != nil {
		return err
	}
	if !c.csyms.declare(0, d.Name, csym{kind: arraySym, isConst: d.IsConst, size: c.mustConstSize(d)}) {
		return errf(d.Pos, "duplicate declaration of %q", d.Name)
	}
	return nil
}

func (c *checker) mustConstSize(d *VarDecl) int {
	v, _ := EvalConst(d.Size)
	return int(v)
}

func (c *checker) checkArrayDecl(d *VarDecl) error {
	size, ok := EvalConst(d.Size)
	if !ok {
		return errf(d.Pos, "array %q size must be a constant expression", d.Name)
	}
	if size <= 0 {
		return errf(d.Pos, "array %q size must be positive, got %d", d.Name, size)
	}
	if d.IsConst && len(d.Inits) == 0 {
		return errf(d.Pos, "const array %q must have an initializer", d.Name)
	}
	if len(d.Inits) > int(size) {
		return errf(d.Pos, "array %q has %d initializers for %d elements", d.Name, len(d.Inits), size)
	}
	for _, e := range d.Inits {
		if _, ok := EvalConst(e); !ok {
			return errf(e.ExprPos(), "array initializer for %q must be constant", d.Name)
		}
	}
	if d.Init != nil {
		return errf(d.Pos, "array %q cannot have a scalar initializer", d.Name)
	}
	return nil
}

func (c *checker) checkKernel(k *Kernel) error {
	c.pixelLoops = 0
	c.frozen = c.frozen[:0]
	params := c.csyms.mark()
	for _, p := range k.Params {
		sym := csym{kind: scalarSym}
		if p.IsArray {
			sym.kind = arraySym
		} else if p.Type != TInt {
			return errf(p.Pos, "scalar parameter %q must have type int", p.Name)
		}
		if !c.csyms.declare(params, p.Name, sym) {
			return errf(p.Pos, "duplicate parameter %q", p.Name)
		}
	}
	if err := c.checkBlock(k.Body, true); err != nil {
		return err
	}
	c.csyms.pop(params)
	return nil
}

// checkBlock validates a statement block. topLevel marks the kernel's
// outermost block, the only place a pixel loop may appear.
func (c *checker) checkBlock(b *BlockStmt, topLevel bool) error {
	scope := c.csyms.mark()
	for _, s := range b.Stmts {
		if err := c.checkStmt(scope, s, topLevel); err != nil {
			return err
		}
	}
	c.csyms.pop(scope)
	return nil
}

// checkStmt validates a statement of the block whose scope begins at
// scope.
func (c *checker) checkStmt(scope int, s Stmt, topLevel bool) error {
	switch st := s.(type) {
	case *BlockStmt:
		return c.checkBlock(st, false)
	case *DeclStmt:
		return c.checkDecl(scope, st.Decl)
	case *AssignStmt:
		return c.checkAssign(st)
	case *ForStmt:
		return c.checkFor(st, topLevel)
	case *IfStmt:
		if err := c.checkExpr(st.Cond); err != nil {
			return err
		}
		if err := c.checkBlock(st.Then, false); err != nil {
			return err
		}
		if st.Else != nil {
			return c.checkBlock(st.Else, false)
		}
		return nil
	case *ReturnStmt:
		return nil
	}
	return fmt.Errorf("cc: unknown statement %T", s)
}

func (c *checker) checkDecl(scope int, d *VarDecl) error {
	if d.IsArray {
		if err := c.checkArrayDecl(d); err != nil {
			return err
		}
		if !c.csyms.declare(scope, d.Name, csym{kind: arraySym, isConst: d.IsConst, size: c.mustConstSize(d)}) {
			return errf(d.Pos, "duplicate declaration of %q", d.Name)
		}
		return nil
	}
	if d.IsConst {
		return errf(d.Pos, "const applies only to arrays (scalar %q)", d.Name)
	}
	if d.Init != nil {
		if err := c.checkExpr(d.Init); err != nil {
			return err
		}
	}
	if !c.csyms.declare(scope, d.Name, csym{kind: scalarSym}) {
		return errf(d.Pos, "duplicate declaration of %q", d.Name)
	}
	return nil
}

func (c *checker) checkAssign(st *AssignStmt) error {
	sym, ok := c.csyms.lookup(st.LHS.Name)
	if !ok {
		return errf(st.LHS.Pos, "undeclared variable %q", st.LHS.Name)
	}
	if st.LHS.Index == nil {
		if sym.kind != scalarSym {
			return errf(st.LHS.Pos, "cannot assign to array %q without an index", st.LHS.Name)
		}
		if slices.Contains(c.frozen, st.LHS.Name) {
			return errf(st.LHS.Pos, "cannot assign to loop variable %q inside its loop", st.LHS.Name)
		}
	} else {
		if sym.kind != arraySym {
			return errf(st.LHS.Pos, "cannot index scalar %q", st.LHS.Name)
		}
		if sym.isConst {
			return errf(st.LHS.Pos, "cannot assign to const array %q", st.LHS.Name)
		}
		if err := c.checkExpr(st.LHS.Index); err != nil {
			return err
		}
	}
	return c.checkExpr(st.RHS)
}

func (c *checker) checkFor(st *ForStmt, topLevel bool) error {
	sym, ok := c.csyms.lookup(st.Var)
	if !ok {
		return errf(st.Pos, "undeclared loop variable %q", st.Var)
	}
	if sym.kind != scalarSym {
		return errf(st.Pos, "loop variable %q must be a scalar", st.Var)
	}
	if err := c.checkExpr(st.Init); err != nil {
		return err
	}
	bound, _, err := c.loopBound(st)
	if err != nil {
		return err
	}
	if err := c.checkExpr(bound); err != nil {
		return err
	}
	trip, isConst := c.constTrip(st)
	if isConst && trip <= MaxFullUnroll {
		// Fully unrolled at lowering: body checked with the induction
		// variable frozen (it becomes a constant binding).
		if trip <= 0 {
			return errf(st.Pos, "constant loop over %q never executes", st.Var)
		}
		c.freeze(st.Var)
		defer c.thaw(st.Var)
		return c.checkBlock(st.Body, false)
	}
	// Runtime-trip pixel loop.
	if !topLevel {
		return errf(st.Pos, "runtime-bound loop over %q must be at the top level of the kernel", st.Var)
	}
	c.pixelLoops++
	if c.pixelLoops > 1 {
		return errf(st.Pos, "kernel has more than one runtime-bound loop; fuse them or make inner trips constant")
	}
	if bv, ok := bound.(*VarRef); ok {
		if bsym, ok := c.csyms.lookup(bv.Name); !ok || bsym.kind != scalarSym {
			return errf(bv.Pos, "loop bound %q must be a scalar", bv.Name)
		}
		c.freeze(bv.Name)
		defer c.thaw(bv.Name)
	}
	c.freeze(st.Var)
	defer c.thaw(st.Var)
	return c.checkBlock(st.Body, false)
}

// loopBound extracts the bound expression from the loop condition,
// which must have the shape `v < bound` or `v <= bound`.
func (c *checker) loopBound(st *ForStmt) (Expr, bool, error) {
	be, ok := st.Cond.(*BinaryExpr)
	if !ok || (be.Op != LT && be.Op != LE) {
		return nil, false, errf(st.Pos, "loop condition must be `%s < bound` or `%s <= bound`", st.Var, st.Var)
	}
	vr, ok := be.L.(*VarRef)
	if !ok || vr.Name != st.Var {
		return nil, false, errf(st.Pos, "loop condition must compare the loop variable %q", st.Var)
	}
	switch be.R.(type) {
	case *IntLit, *VarRef:
	default:
		return nil, false, errf(be.R.ExprPos(), "loop bound must be a literal or a variable")
	}
	return be.R, be.Op == LE, nil
}

// constTrip returns the loop's trip count if both the initial value and
// the bound are compile-time constants.
func (c *checker) constTrip(st *ForStmt) (int, bool) {
	init, ok1 := EvalConst(st.Init)
	bound, le, err := c.loopBound(st)
	if err != nil {
		return 0, false
	}
	bv, ok2 := EvalConst(bound)
	if !ok1 || !ok2 {
		return 0, false
	}
	trip := int(bv - init)
	if le {
		trip++
	}
	return trip, true
}

func (c *checker) checkExpr(e Expr) error {
	switch ex := e.(type) {
	case *IntLit:
		return nil
	case *VarRef:
		sym, ok := c.csyms.lookup(ex.Name)
		if !ok {
			return errf(ex.Pos, "undeclared variable %q", ex.Name)
		}
		if sym.kind != scalarSym {
			return errf(ex.Pos, "array %q used without an index", ex.Name)
		}
		return nil
	case *IndexExpr:
		sym, ok := c.csyms.lookup(ex.Name)
		if !ok {
			return errf(ex.Pos, "undeclared array %q", ex.Name)
		}
		if sym.kind != arraySym {
			return errf(ex.Pos, "cannot index scalar %q", ex.Name)
		}
		return c.checkExpr(ex.Index)
	case *BinaryExpr:
		if err := c.checkExpr(ex.L); err != nil {
			return err
		}
		if err := c.checkExpr(ex.R); err != nil {
			return err
		}
		if ex.Op == SLASH || ex.Op == PERCENT {
			v, ok := EvalConst(ex.R)
			if !ok || v <= 0 || v&(v-1) != 0 {
				return errf(ex.Pos, "division/modulo only by positive power-of-two constants (the template has no divide unit)")
			}
		}
		return nil
	case *UnaryExpr:
		return c.checkExpr(ex.X)
	case *CondExpr:
		if err := c.checkExpr(ex.Cond); err != nil {
			return err
		}
		if err := c.checkExpr(ex.Then); err != nil {
			return err
		}
		return c.checkExpr(ex.Else)
	case *CastExpr:
		return c.checkExpr(ex.X)
	case *CallExpr:
		arity, ok := builtinArity[ex.Name]
		if !ok {
			return errf(ex.Pos, "unknown function %q (builtins: min, max, abs, clamp)", ex.Name)
		}
		if len(ex.Args) != arity {
			return errf(ex.Pos, "%s expects %d arguments, got %d", ex.Name, arity, len(ex.Args))
		}
		for _, a := range ex.Args {
			if err := c.checkExpr(a); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("cc: unknown expression %T", e)
}

var builtinArity = map[string]int{"min": 2, "max": 2, "abs": 1, "clamp": 3}

// EvalConst folds a constant expression, reporting success. Variable
// references are not constant (full-unroll constant bindings are handled
// during lowering, not here).
func EvalConst(e Expr) (int32, bool) {
	switch ex := e.(type) {
	case nil:
		return 0, false
	case *IntLit:
		return ex.Val, true
	case *UnaryExpr:
		v, ok := EvalConst(ex.X)
		if !ok {
			return 0, false
		}
		switch ex.Op {
		case MINUS:
			return -v, true
		case TILDE:
			return ^v, true
		case BANG:
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
		return 0, false
	case *CastExpr:
		v, ok := EvalConst(ex.X)
		if !ok {
			return 0, false
		}
		return ex.Type.Elem().Extend(v), true
	case *BinaryExpr:
		l, ok1 := EvalConst(ex.L)
		r, ok2 := EvalConst(ex.R)
		if !ok1 || !ok2 {
			return 0, false
		}
		return evalConstBin(ex.Op, l, r)
	case *CondExpr:
		c, ok := EvalConst(ex.Cond)
		if !ok {
			return 0, false
		}
		if c != 0 {
			return EvalConst(ex.Then)
		}
		return EvalConst(ex.Else)
	}
	return 0, false
}

func evalConstBin(op Kind, l, r int32) (int32, bool) {
	switch op {
	case PLUS:
		return l + r, true
	case MINUS:
		return l - r, true
	case STAR:
		return l * r, true
	case SLASH:
		if r == 0 {
			return 0, false
		}
		return l / r, true
	case PERCENT:
		if r == 0 {
			return 0, false
		}
		return l % r, true
	case SHL:
		return l << (uint32(r) & 31), true
	case SHR:
		return l >> (uint32(r) & 31), true
	case AMP:
		return l & r, true
	case PIPE:
		return l | r, true
	case CARET:
		return l ^ r, true
	case EQ:
		return cb(l == r), true
	case NE:
		return cb(l != r), true
	case LT:
		return cb(l < r), true
	case LE:
		return cb(l <= r), true
	case GT:
		return cb(l > r), true
	case GE:
		return cb(l >= r), true
	case ANDAND:
		return cb(l != 0 && r != 0), true
	case OROR:
		return cb(l != 0 || r != 0), true
	}
	return 0, false
}

func cb(b bool) int32 {
	if b {
		return 1
	}
	return 0
}
