package cc

import (
	"strconv"
)

// Lexer tokenizes CKC source.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer creates a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Lex tokenizes the whole input, returning the token stream (terminated
// by an EOF token) or the first lexical error.
func Lex(src string) ([]Token, error) {
	lx := NewLexer(src)
	// Sized once from the source: CKC runs to a token every 2.2 to 2.7
	// bytes (the paper's kernels), so half a token per byte is room for
	// all of them where doubling up from nothing allocated the stream
	// twice over; a denser source grows the slice as before.
	toks := make([]Token, 0, len(src)/2+1)
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}

func (lx *Lexer) pos() Pos { return Pos{Line: lx.line, Col: lx.col} }

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peek2() byte {
	if lx.off+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) skipSpaceAndComments() error {
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			start := lx.pos()
			lx.advance()
			lx.advance()
			closed := false
			for lx.off < len(lx.src) {
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return errf(start, "unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	pos := lx.pos()
	if lx.off >= len(lx.src) {
		return Token{Kind: EOF, Pos: pos}, nil
	}
	c := lx.peek()
	switch {
	case isIdentStart(c):
		start := lx.off
		for lx.off < len(lx.src) && isIdentCont(lx.peek()) {
			lx.advance()
		}
		text := lx.src[start:lx.off]
		if k, ok := keywords[text]; ok {
			return Token{Kind: k, Text: text, Pos: pos}, nil
		}
		return Token{Kind: IDENT, Text: text, Pos: pos}, nil
	case isDigit(c):
		start := lx.off
		base := 10
		if c == '0' && (lx.peek2() == 'x' || lx.peek2() == 'X') {
			base = 16
			lx.advance()
			lx.advance()
			for lx.off < len(lx.src) && isHexDigit(lx.peek()) {
				lx.advance()
			}
			if lx.off == start+2 {
				return Token{}, errf(pos, "malformed hex literal")
			}
		} else {
			for lx.off < len(lx.src) && isDigit(lx.peek()) {
				lx.advance()
			}
		}
		text := lx.src[start:lx.off]
		digits := text
		if base == 16 {
			digits = text[2:]
		}
		v, err := strconv.ParseUint(digits, base, 32)
		if err != nil {
			return Token{}, errf(pos, "integer literal %q out of 32-bit range", text)
		}
		return Token{Kind: NUMBER, Text: text, Val: int32(uint32(v)), Pos: pos}, nil
	}
	// Operators and punctuation, longest match first.
	three := ""
	if lx.off+3 <= len(lx.src) {
		three = lx.src[lx.off : lx.off+3]
	}
	two := ""
	if lx.off+2 <= len(lx.src) {
		two = lx.src[lx.off : lx.off+2]
	}
	if k, ok := threeCharOps[three]; ok {
		lx.advance()
		lx.advance()
		lx.advance()
		return Token{Kind: k, Text: three, Pos: pos}, nil
	}
	if k, ok := twoCharOps[two]; ok {
		lx.advance()
		lx.advance()
		return Token{Kind: k, Text: two, Pos: pos}, nil
	}
	if k, ok := oneCharOps[c]; ok {
		lx.advance()
		return Token{Kind: k, Text: lx.src[lx.off-1 : lx.off], Pos: pos}, nil
	}
	return Token{}, errf(pos, "unexpected character %q", string(c))
}

var threeCharOps = map[string]Kind{
	"<<=": SHLEQ, ">>=": SHREQ,
}

var twoCharOps = map[string]Kind{
	"+=": PLUSEQ, "-=": MINUSEQ, "*=": STAREQ, "/=": SLASHEQ, "%=": PERCENTEQ,
	"&=": ANDEQ, "|=": OREQ, "^=": XOREQ,
	"++": PLUSPLUS, "--": MINUSMINUS,
	"<<": SHL, ">>": SHR, "&&": ANDAND, "||": OROR,
	"==": EQ, "!=": NE, "<=": LE, ">=": GE,
}

var oneCharOps = map[byte]Kind{
	'(': LPAREN, ')': RPAREN, '{': LBRACE, '}': RBRACE, '[': LBRACK,
	']': RBRACK, ';': SEMI, ',': COMMA, '?': QUESTION, ':': COLON,
	'=': ASSIGN, '+': PLUS, '-': MINUS, '*': STAR, '/': SLASH,
	'%': PERCENT, '<': LT, '>': GT, '&': AMP, '|': PIPE, '^': CARET,
	'~': TILDE, '!': BANG,
}
