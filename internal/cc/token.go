// Package cc implements the frontend for CKC ("custom-fit kernel C"),
// the restricted C dialect in which the paper's image-processing
// benchmarks are written. CKC covers what the paper's kernels need —
// fixed-point integer arithmetic, arrays in the two-level memory
// hierarchy, for loops, if/else, the ternary operator — and deliberately
// nothing more. Division and modulo are allowed only by power-of-two
// constants (the kernels are fixed-point; there is no divide unit in the
// architecture template).
//
// The pipeline is Parse → Check → Lower, producing an ir.Func. The
// parser pulls its tokens from the Lexer one at a time (Lex, the whole
// stream at once, is for tools and tests) and cuts the AST's nodes from
// arrays the parse owns; the checker and the lowerer resolve names on
// one flat symbol stack each, and the lowerer builds the function in a
// reused buffer it then copies into one exactly sized slab. So a
// compile allocates per kernel, kind of node and block rather than per
// token, node, scope and instruction. Nesting deeper than MaxNesting
// is refused.
package cc

import "fmt"

// Kind classifies a token.
type Kind uint8

const (
	EOF Kind = iota
	IDENT
	NUMBER

	// Keywords.
	KWKernel
	KWInt
	KWShort
	KWUShort
	KWByte
	KWSByte
	KWConst
	KWFor
	KWIf
	KWElse
	KWReturn

	// Punctuation and operators.
	LPAREN   // (
	RPAREN   // )
	LBRACE   // {
	RBRACE   // }
	LBRACK   // [
	RBRACK   // ]
	SEMI     // ;
	COMMA    // ,
	QUESTION // ?
	COLON    // :

	ASSIGN     // =
	PLUSEQ     // +=
	MINUSEQ    // -=
	STAREQ     // *=
	SLASHEQ    // /=
	PERCENTEQ  // %=
	SHLEQ      // <<=
	SHREQ      // >>=
	ANDEQ      // &=
	OREQ       // |=
	XOREQ      // ^=
	PLUSPLUS   // ++
	MINUSMINUS // --

	PLUS    // +
	MINUS   // -
	STAR    // *
	SLASH   // /
	PERCENT // %
	SHL     // <<
	SHR     // >>
	AMP     // &
	PIPE    // |
	CARET   // ^
	TILDE   // ~
	BANG    // !
	ANDAND  // &&
	OROR    // ||
	EQ      // ==
	NE      // !=
	LT      // <
	LE      // <=
	GT      // >
	GE      // >=
)

var kindNames = map[Kind]string{
	EOF: "EOF", IDENT: "identifier", NUMBER: "number",
	KWKernel: "kernel", KWInt: "int", KWShort: "short", KWUShort: "ushort",
	KWByte: "byte", KWSByte: "sbyte", KWConst: "const", KWFor: "for",
	KWIf: "if", KWElse: "else", KWReturn: "return",
	LPAREN: "(", RPAREN: ")", LBRACE: "{", RBRACE: "}", LBRACK: "[",
	RBRACK: "]", SEMI: ";", COMMA: ",", QUESTION: "?", COLON: ":",
	ASSIGN: "=", PLUSEQ: "+=", MINUSEQ: "-=", STAREQ: "*=", SLASHEQ: "/=",
	PERCENTEQ: "%=", SHLEQ: "<<=", SHREQ: ">>=", ANDEQ: "&=", OREQ: "|=",
	XOREQ: "^=", PLUSPLUS: "++", MINUSMINUS: "--",
	PLUS: "+", MINUS: "-", STAR: "*", SLASH: "/", PERCENT: "%",
	SHL: "<<", SHR: ">>", AMP: "&", PIPE: "|", CARET: "^", TILDE: "~",
	BANG: "!", ANDAND: "&&", OROR: "||", EQ: "==", NE: "!=",
	LT: "<", LE: "<=", GT: ">", GE: ">=",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

var keywords = map[string]Kind{
	"kernel": KWKernel, "int": KWInt, "short": KWShort, "ushort": KWUShort,
	"byte": KWByte, "sbyte": KWSByte, "const": KWConst, "for": KWFor,
	"if": KWIf, "else": KWElse, "return": KWReturn,
}

// Token is a lexical token with its source position.
type Token struct {
	Kind Kind
	Text string // identifier text or literal text
	Val  int32  // numeric value for NUMBER
	Pos  Pos
}

// Pos is a line/column source position (1-based).
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Error is a frontend diagnostic with position information.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func errf(pos Pos, format string, args ...interface{}) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
