package cc

import (
	"fmt"
	"slices"
)

// MaxNesting bounds how deeply CKC source nests: statements (blocks,
// loop bodies, if and else-if chains) and expressions (parentheses,
// subscripts, call arguments, ternary arms, prefix operators, casts and
// the operators of a left-associative chain) count together. The
// parser, the checker and the lowerer each recurse once per level, so
// past the bound a source is refused with a positioned Error rather
// than growing the stack until the runtime kills the process. The
// suite's kernels nest twelve levels deep at most.
const MaxNesting = 1000

// Parser is a recursive-descent parser for CKC. It pulls its tokens from
// a Lexer as it goes, looking at most two past the current one (a cast's
// `( type )`), and cuts the AST's nodes from arrays it owns, so a parse
// allocates per kind of node rather than per token and per node. It
// builds its statement and expression lists on a workspace's stacks.
type Parser struct {
	*workspace
	lx Lexer
	// la holds the current token and the two after it.
	la [3]Token
	// lexErr is the lexer's first error; every token from there on
	// reads as EOF.
	lexErr error
	depth  int
	nodes  nodes
}

// Parse lexes and parses a CKC translation unit. Of a lexical and a
// syntax error it reports the lexical one, wherever it lies, as a parse
// of the whole token stream would.
func Parse(src string) (*File, error) {
	ws := workspaces.Get()
	defer ws.release()
	return ws.parse(src)
}

// parse is Parse in ws.
func (ws *workspace) parse(src string) (*File, error) {
	p := &Parser{workspace: ws, lx: Lexer{src: src, line: 1, col: 1}}
	for i := range p.la {
		p.la[i] = p.pull()
	}
	f, err := p.file()
	if err != nil {
		for p.lexErr == nil && p.la[2].Kind != EOF {
			p.next()
		}
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	return f, err
}

// pull returns the lexer's next token, or EOF once it has failed.
func (p *Parser) pull() Token {
	if p.lexErr == nil {
		t, err := p.lx.Next()
		if err == nil {
			return t
		}
		p.lexErr = err
	}
	return Token{Kind: EOF}
}

func (p *Parser) cur() Token { return p.la[0] }

func (p *Parser) next() Token {
	t := p.la[0]
	p.la[0], p.la[1], p.la[2] = p.la[1], p.la[2], p.pull()
	return t
}

func (p *Parser) at(k Kind) bool { return p.la[0].Kind == k }

func (p *Parser) accept(k Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k Kind) (Token, error) {
	if !p.at(k) {
		return Token{}, errf(p.cur().Pos, "expected %s, found %s", k, describe(p.cur()))
	}
	return p.next(), nil
}

// nest enters one more level of nesting, at the current token; the
// caller leaves it with p.depth-- once the level has parsed.
func (p *Parser) nest() error {
	p.depth++
	return p.within(p.depth)
}

// within fails, at the current token, when level is past MaxNesting.
func (p *Parser) within(level int) error {
	if level > MaxNesting {
		return errf(p.cur().Pos, "nesting deeper than %d levels", MaxNesting)
	}
	return nil
}

func describe(t Token) string {
	if t.Kind == IDENT || t.Kind == NUMBER {
		return fmt.Sprintf("%s %q", t.Kind, t.Text)
	}
	return fmt.Sprintf("%q", t.Kind.String())
}

func isTypeKw(k Kind) bool {
	switch k {
	case KWInt, KWShort, KWUShort, KWByte, KWSByte:
		return true
	}
	return false
}

func typeOf(k Kind) Type {
	switch k {
	case KWShort:
		return TShort
	case KWUShort:
		return TUShort
	case KWByte:
		return TByte
	case KWSByte:
		return TSByte
	default:
		return TInt
	}
}

func (p *Parser) file() (*File, error) {
	f := &File{}
	for !p.at(EOF) {
		switch {
		case p.at(KWKernel):
			k, err := p.kernel()
			if err != nil {
				return nil, err
			}
			f.Kernels = append(f.Kernels, k)
		case p.at(KWConst) || isTypeKw(p.cur().Kind):
			d, err := p.varDecl()
			if err != nil {
				return nil, err
			}
			f.Globals = append(f.Globals, d)
		default:
			return nil, errf(p.cur().Pos, "expected declaration or kernel, found %s", describe(p.cur()))
		}
	}
	return f, nil
}

func (p *Parser) kernel() (*Kernel, error) {
	kw, _ := p.expect(KWKernel)
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	k := &Kernel{Name: name.Text, Pos: kw.Pos}
	var buf [16]*ParamDecl
	params := buf[:0]
	for !p.at(RPAREN) {
		if len(params) > 0 {
			if _, err := p.expect(COMMA); err != nil {
				return nil, err
			}
		}
		if !isTypeKw(p.cur().Kind) {
			return nil, errf(p.cur().Pos, "expected parameter type, found %s", describe(p.cur()))
		}
		ty := typeOf(p.next().Kind)
		pn, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		pd := p.nodes.params.add(ParamDecl{Name: pn.Text, Type: ty, Pos: pn.Pos})
		if p.accept(LBRACK) {
			if _, err := p.expect(RBRACK); err != nil {
				return nil, err
			}
			pd.IsArray = true
		}
		params = append(params, pd)
	}
	p.next() // RPAREN
	k.Params = slices.Clone(params)
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	k.Body = body
	return k, nil
}

// varDecl parses `[const] type name;`, `[const] type name = expr;`,
// `[const] type name[N];` or `[const] type name[N] = {a, b, ...};`.
func (p *Parser) varDecl() (*VarDecl, error) {
	d := p.nodes.varDecls.add(VarDecl{})
	if p.accept(KWConst) {
		d.IsConst = true
	}
	if !isTypeKw(p.cur().Kind) {
		return nil, errf(p.cur().Pos, "expected type, found %s", describe(p.cur()))
	}
	d.Type = typeOf(p.next().Kind)
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	d.Name = name.Text
	d.Pos = name.Pos
	if p.accept(LBRACK) {
		d.IsArray = true
		size, err := p.expr()
		if err != nil {
			return nil, err
		}
		d.Size = size
		if _, err := p.expect(RBRACK); err != nil {
			return nil, err
		}
	}
	if p.accept(ASSIGN) {
		if d.IsArray {
			if _, err := p.expect(LBRACE); err != nil {
				return nil, err
			}
			base := len(p.exprs)
			for !p.at(RBRACE) {
				if len(p.exprs) > base {
					if _, err := p.expect(COMMA); err != nil {
						return nil, err
					}
					if p.at(RBRACE) { // trailing comma
						break
					}
				}
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				p.exprs = append(p.exprs, e)
			}
			p.next() // RBRACE
			d.Inits = popList(&p.exprs, base, &p.nodes.exprLists)
		} else {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			d.Init = e
		}
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *Parser) block() (*BlockStmt, error) {
	lb, err := p.expect(LBRACE)
	if err != nil {
		return nil, err
	}
	base := len(p.stmts)
	for !p.at(RBRACE) {
		if p.at(EOF) {
			return nil, errf(lb.Pos, "unterminated block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		if s != nil {
			p.stmts = append(p.stmts, s)
		}
	}
	p.next() // RBRACE
	return p.nodes.blocks.add(BlockStmt{Stmts: popList(&p.stmts, base, &p.nodes.stmtLists), Pos: lb.Pos}), nil
}

func (p *Parser) stmt() (Stmt, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	s, err := p.stmtBody()
	p.depth--
	return s, err
}

func (p *Parser) stmtBody() (Stmt, error) {
	switch {
	case p.accept(SEMI):
		return nil, nil
	case p.at(LBRACE):
		return p.block()
	case p.at(KWConst) || isTypeKw(p.cur().Kind):
		d, err := p.varDecl()
		if err != nil {
			return nil, err
		}
		return p.nodes.decls.add(DeclStmt{Decl: d}), nil
	case p.at(KWFor):
		return p.forStmt()
	case p.at(KWIf):
		return p.ifStmt()
	case p.at(KWReturn):
		t := p.next()
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return p.nodes.returns.add(ReturnStmt{Pos: t.Pos}), nil
	case p.at(IDENT):
		s, err := p.assign()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return s, nil
	}
	return nil, errf(p.cur().Pos, "expected statement, found %s", describe(p.cur()))
}

func isAssignOp(k Kind) bool {
	switch k {
	case ASSIGN, PLUSEQ, MINUSEQ, STAREQ, SLASHEQ, PERCENTEQ, SHLEQ, SHREQ,
		ANDEQ, OREQ, XOREQ:
		return true
	}
	return false
}

// assign parses `lvalue op= expr`, `lvalue++` or `lvalue--` (without the
// trailing semicolon, so forStmt can reuse it).
func (p *Parser) assign() (*AssignStmt, error) {
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	lv := p.nodes.lvalues.add(LValue{Name: name.Text, Pos: name.Pos})
	if p.accept(LBRACK) {
		idx, err := p.expr()
		if err != nil {
			return nil, err
		}
		lv.Index = idx
		if _, err := p.expect(RBRACK); err != nil {
			return nil, err
		}
	}
	t := p.cur()
	switch {
	case t.Kind == PLUSPLUS, t.Kind == MINUSMINUS:
		p.next()
		op := PLUSEQ
		if t.Kind == MINUSMINUS {
			op = MINUSEQ
		}
		one := p.nodes.ints.add(IntLit{Val: 1, Pos: t.Pos})
		return p.nodes.assigns.add(AssignStmt{LHS: lv, Op: op, RHS: one, Pos: t.Pos}), nil
	case isAssignOp(t.Kind):
		p.next()
		rhs, err := p.expr()
		if err != nil {
			return nil, err
		}
		return p.nodes.assigns.add(AssignStmt{LHS: lv, Op: t.Kind, RHS: rhs, Pos: t.Pos}), nil
	}
	return nil, errf(t.Pos, "expected assignment operator, found %s", describe(t))
}

// forStmt parses the canonical counting loop
// `for (v = init; v < bound; v++) body` (<= is also accepted and
// normalized to < during checking).
func (p *Parser) forStmt() (Stmt, error) {
	kw := p.next() // for
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	initStmt, err := p.assign()
	if err != nil {
		return nil, err
	}
	if initStmt.Op != ASSIGN || initStmt.LHS.Index != nil {
		return nil, errf(initStmt.Pos, "for-init must be a scalar assignment `v = expr`")
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	post, err := p.assign()
	if err != nil {
		return nil, err
	}
	if post.LHS.Index != nil || post.LHS.Name != initStmt.LHS.Name ||
		post.Op != PLUSEQ || !isLitOne(post.RHS) {
		return nil, errf(post.Pos, "for-post must be `%s++`", initStmt.LHS.Name)
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	var body *BlockStmt
	if p.at(LBRACE) {
		body, err = p.block()
		if err != nil {
			return nil, err
		}
	} else {
		body, err = p.stmtAsBlock(kw.Pos)
		if err != nil {
			return nil, err
		}
	}
	return p.nodes.fors.add(ForStmt{Var: initStmt.LHS.Name, Init: initStmt.RHS, Cond: cond, Body: body, Pos: kw.Pos}), nil
}

func isLitOne(e Expr) bool {
	l, ok := e.(*IntLit)
	return ok && l.Val == 1
}

func (p *Parser) ifStmt() (Stmt, error) {
	kw := p.next() // if
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	thenBlk, err := p.armBlock()
	if err != nil {
		return nil, err
	}
	st := p.nodes.ifs.add(IfStmt{Cond: cond, Then: thenBlk, Pos: kw.Pos})
	if p.accept(KWElse) {
		elseBlk, err := p.armBlock()
		if err != nil {
			return nil, err
		}
		st.Else = elseBlk
	}
	return st, nil
}

// armBlock parses an if or else arm: a block, or one statement wrapped
// in a block of its own at the statement's position.
func (p *Parser) armBlock() (*BlockStmt, error) {
	if p.at(LBRACE) {
		return p.block()
	}
	return p.stmtAsBlock(p.cur().Pos)
}

// stmtAsBlock parses one statement and wraps it in a block at pos.
func (p *Parser) stmtAsBlock(pos Pos) (*BlockStmt, error) {
	s, err := p.stmt()
	if err != nil {
		return nil, err
	}
	b := p.nodes.blocks.add(BlockStmt{Pos: pos})
	if s != nil {
		b.Stmts = p.nodes.stmtLists.take(1)
		b.Stmts[0] = s
	}
	return b, nil
}

// Expression parsing: precedence climbing following C.

var binPrec = map[Kind]int{
	OROR:   1,
	ANDAND: 2,
	PIPE:   3,
	CARET:  4,
	AMP:    5,
	EQ:     6, NE: 6,
	LT: 7, LE: 7, GT: 7, GE: 7,
	SHL: 8, SHR: 8,
	PLUS: 9, MINUS: 9,
	STAR: 10, SLASH: 10, PERCENT: 10,
}

// expr parses an expression one nesting level below the current one.
func (p *Parser) expr() (Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	e, err := p.ternary()
	p.depth--
	return e, err
}

func (p *Parser) ternary() (Expr, error) {
	cond, err := p.binary(1)
	if err != nil {
		return nil, err
	}
	if !p.at(QUESTION) {
		return cond, nil
	}
	q := p.next()
	thenE, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(COLON); err != nil {
		return nil, err
	}
	elseE, err := p.expr()
	if err != nil {
		return nil, err
	}
	return p.nodes.conds.add(CondExpr{Cond: cond, Then: thenE, Else: elseE, Pos: q.Pos}), nil
}

// binary parses a chain of operators of precedence minPrec or higher.
// The chain is left-associative, so its tree is as deep as it is long:
// each operator counts one level, and an operand is parsed at the
// chain's own level.
func (p *Parser) binary(minPrec int) (Expr, error) {
	lhs, err := p.unary()
	if err != nil {
		return nil, err
	}
	for level := p.depth + 1; ; level++ {
		prec, ok := binPrec[p.cur().Kind]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		if err := p.within(level); err != nil {
			return nil, err
		}
		op := p.next()
		rhs, err := p.binary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = p.nodes.binaries.add(BinaryExpr{Op: op.Kind, L: lhs, R: rhs, Pos: op.Pos})
	}
}

func (p *Parser) unary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case MINUS, TILDE, BANG:
		p.next()
		x, err := p.operand()
		if err != nil {
			return nil, err
		}
		if lit, ok := x.(*IntLit); ok && t.Kind == MINUS {
			return p.nodes.ints.add(IntLit{Val: -lit.Val, Pos: t.Pos}), nil
		}
		return p.nodes.unaries.add(UnaryExpr{Op: t.Kind, X: x, Pos: t.Pos}), nil
	case PLUS:
		p.next()
		return p.operand()
	case LPAREN:
		// Either a cast `(type) x` or a parenthesized expression.
		if isTypeKw(p.la[1].Kind) && p.la[2].Kind == RPAREN {
			p.next()
			ty := typeOf(p.next().Kind)
			p.next() // RPAREN
			x, err := p.operand()
			if err != nil {
				return nil, err
			}
			return p.nodes.casts.add(CastExpr{Type: ty, X: x, Pos: t.Pos}), nil
		}
		p.next()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return x, nil
	}
	return p.primary()
}

// operand parses what a prefix operator or a cast applies to, one
// nesting level down.
func (p *Parser) operand() (Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	x, err := p.unary()
	p.depth--
	return x, err
}

func (p *Parser) primary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case NUMBER:
		p.next()
		return p.nodes.ints.add(IntLit{Val: t.Val, Pos: t.Pos}), nil
	case IDENT:
		p.next()
		switch {
		case p.at(LPAREN):
			p.next()
			base := len(p.exprs)
			for !p.at(RPAREN) {
				if len(p.exprs) > base {
					if _, err := p.expect(COMMA); err != nil {
						return nil, err
					}
				}
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				p.exprs = append(p.exprs, a)
			}
			p.next() // RPAREN
			args := popList(&p.exprs, base, &p.nodes.exprLists)
			return p.nodes.calls.add(CallExpr{Name: t.Text, Args: args, Pos: t.Pos}), nil
		case p.at(LBRACK):
			p.next()
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBRACK); err != nil {
				return nil, err
			}
			return p.nodes.indexes.add(IndexExpr{Name: t.Text, Index: idx, Pos: t.Pos}), nil
		}
		return p.nodes.vars.add(VarRef{Name: t.Text, Pos: t.Pos}), nil
	}
	return nil, errf(t.Pos, "expected expression, found %s", describe(t))
}
