package cc

import (
	"customfit/internal/idle"
	"customfit/internal/ir"
)

// The frontend's memory comes in two kinds. The AST a parse returns is
// cut from arrays its nodes share (chunks), so a parse allocates once
// per doubling of each kind of node rather than once per node, and per
// token not at all. What the phases only work in — the parser's list
// stacks, the checker's and the lowerer's symbol stacks, the buffer the
// lowered instructions are cut from before the function owns them — is
// a workspace's, borrowed for the call and handed back, so a stream of
// compiles works in tables grown once.

// chunks hands out Ts cut from arrays it allocates, each twice the size
// of the one before: one allocation per doubling instead of one per
// value. What it hands out stays valid for as long as anything points
// into it. An owner whose values are all dead may cut buf to length
// zero and start over in the last array (the lowerer's branch targets,
// once the function owns copies of them).
type chunks[T any] struct{ buf []T }

// minChunk is the size of a chunks' first array.
const minChunk = 8

// add returns a pointer to a copy of v.
func (c *chunks[T]) add(v T) *T {
	e := &c.take(1)[0]
	*e = v
	return e
}

// take returns n zero Ts, cut to their length so that appending to them
// cannot reach a neighbour.
func (c *chunks[T]) take(n int) []T {
	if cap(c.buf)-len(c.buf) < n {
		c.buf = make([]T, 0, max(n, minChunk, 2*cap(c.buf)))
	}
	k := len(c.buf)
	c.buf = c.buf[:k+n]
	return c.buf[k : k+n : k+n]
}

// nodes owns the AST a Parser builds, one chunks per kind of node, and
// the arrays its statement and expression lists are cut from.
type nodes struct {
	ints     chunks[IntLit]
	vars     chunks[VarRef]
	indexes  chunks[IndexExpr]
	binaries chunks[BinaryExpr]
	unaries  chunks[UnaryExpr]
	conds    chunks[CondExpr]
	casts    chunks[CastExpr]
	calls    chunks[CallExpr]

	blocks  chunks[BlockStmt]
	decls   chunks[DeclStmt]
	assigns chunks[AssignStmt]
	fors    chunks[ForStmt]
	ifs     chunks[IfStmt]
	returns chunks[ReturnStmt]

	lvalues  chunks[LValue]
	varDecls chunks[VarDecl]
	params   chunks[ParamDecl]

	stmtLists chunks[Stmt]
	exprLists chunks[Expr]
}

// popList moves the entries of stack from base on into an exactly sized
// list cut from lists, nil when there are none, and pops them.
func popList[T any](stack *[]T, base int, lists *chunks[T]) []T {
	s := *stack
	if len(s) == base {
		return nil
	}
	out := lists.take(len(s) - base)
	copy(out, s[base:])
	clear(s[base:])
	*stack = s[:base]
	return out
}

// symbols is a flat stack of scoped declarations. A scope is the part
// of the stack from the mark it began at to the top, and ends by popping
// back to its mark; top maps each visible name to its innermost
// declaration, which links the one it shadows.
type symbols[S any] struct {
	stack []symbol[S]
	top   map[string]int32
}

type symbol[S any] struct {
	name string
	sym  S
	prev int32 // the declaration of name this one shadows, or -1
}

func newSymbols[S any]() symbols[S] {
	return symbols[S]{top: map[string]int32{}}
}

// mark begins a scope.
func (s *symbols[S]) mark() int { return len(s.stack) }

// push declares name, shadowing any declaration of it so far, and
// returns the declaration's index in the stack.
func (s *symbols[S]) push(name string, sym S) int {
	prev, ok := s.top[name]
	if !ok {
		prev = -1
	}
	i := len(s.stack)
	s.top[name] = int32(i)
	s.stack = append(s.stack, symbol[S]{name: name, sym: sym, prev: prev})
	return i
}

// declare is push for a scope that may declare a name only once: false,
// and nothing declared, when the scope begun at mark already has name.
func (s *symbols[S]) declare(mark int, name string, sym S) bool {
	if i, ok := s.top[name]; ok && int(i) >= mark {
		return false
	}
	s.push(name, sym)
	return true
}

// lookup returns the innermost declaration of name.
func (s *symbols[S]) lookup(name string) (S, bool) {
	i, ok := s.top[name]
	if !ok {
		var zero S
		return zero, false
	}
	return s.stack[i].sym, true
}

// reset empties s through the capacity of its stack.
func (s *symbols[S]) reset() {
	idle.Wipe(s.stack)
	s.stack = s.stack[:0]
	clear(s.top)
}

// pop ends the scope begun at mark.
func (s *symbols[S]) pop(mark int) {
	for i := len(s.stack) - 1; i >= mark; i-- {
		if e := &s.stack[i]; e.prev < 0 {
			delete(s.top, e.name)
		} else {
			s.top[e.name] = e.prev
		}
	}
	clear(s.stack[mark:])
	s.stack = s.stack[:mark]
}

// workspace is what Parse, Check and LowerFile work in and leave
// behind. Each call borrows one from workspaces and hands it back when
// it is done (a Compile borrows one for all three phases), so a stream
// of compiles works in grown tables and buffers (see idle.List: the rule
// is sched.Scratch's). A workspace is not safe for concurrent use.
type workspace struct {
	// stmts and exprs are the stacks the parser's open blocks, and its
	// open argument and initializer lists, build on; each copies its
	// entries out, exactly sized, when it closes.
	stmts []Stmt
	exprs []Expr

	// csyms holds the checker's globals, then the current kernel's
	// parameters, then one scope per open block; frozen holds, once
	// each, the induction and bound variables of the enclosing loops,
	// which their bodies must not assign.
	csyms  symbols[csym]
	frozen []string

	// The lowerer cuts a kernel's instructions, their operands and the
	// blocks' lists from slab until the function moves into a slab of
	// its own (ir.Func.Own). open is the list of the block being
	// filled, targets the branches' target lists, lsyms the symbol
	// stack (globals, parameters, one scope per open block and per
	// constant loop, for its induction variable's binding) and preds
	// each block's predecessor count.
	slab    ir.Slab
	open    []*ir.Instr
	targets chunks[*ir.Block]
	lsyms   symbols[lsym]
	preds   map[*ir.Block]int32
}

var workspaces = idle.New("cc", func() *workspace {
	return &workspace{csyms: newSymbols[csym](), lsyms: newSymbols[lsym](), preds: map[*ir.Block]int32{}}
})

// release hands ws back to workspaces with every pointer into the last
// request dropped, through the capacity of the lists that carry them: an
// idle workspace pins no AST, instruction, block or source text. The
// lowerer has forgotten its slab already (lowerFile).
func (ws *workspace) release() {
	idle.Wipe(ws.stmts)
	idle.Wipe(ws.exprs)
	idle.Wipe(ws.frozen)
	idle.Wipe(ws.open)
	idle.Wipe(ws.targets.buf)
	ws.stmts, ws.exprs, ws.frozen = ws.stmts[:0], ws.exprs[:0], ws.frozen[:0]
	ws.open, ws.targets.buf = ws.open[:0], ws.targets.buf[:0]
	ws.csyms.reset()
	ws.lsyms.reset()
	clear(ws.preds)
	workspaces.Put(ws)
}
