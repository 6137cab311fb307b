// Package cctest generates random CKC programs from a seed, for tests
// that play the toolchain's layers against each other: expressions with
// a direct evaluator (the frontend against C semantics), and whole
// pixel-loop kernels (any later stage against the interpreter run of the
// unoptimized IR). It imports nothing of the toolchain, so the tests of
// any package can use it.
package cctest

import (
	"fmt"
	"math/rand"
	"strings"
)

// exprGen draws one expression tree.
type exprGen struct {
	r     *rand.Rand
	depth int
}

// Expr returns a random expression over the int variables a, b and c, at
// most depth operators deep: its CKC source and a direct evaluator with
// C semantics. The operator set covers arithmetic, shifts, bitwise
// logic, comparisons, ?:, min, abs, the (byte) cast and division by a
// power of two.
func Expr(r *rand.Rand, depth int) (string, func(a, b, c int32) int32) {
	g := &exprGen{r: r, depth: depth}
	return g.gen(0)
}

// gen returns (source fragment, evaluator) for a random expression over
// the variables a, b, c.
func (g *exprGen) gen(d int) (string, func(a, b, c int32) int32) {
	if d >= g.depth || g.r.Intn(4) == 0 {
		switch g.r.Intn(5) {
		case 0:
			return "a", func(a, _, _ int32) int32 { return a }
		case 1:
			return "b", func(_, b, _ int32) int32 { return b }
		case 2:
			return "c", func(_, _, c int32) int32 { return c }
		default:
			v := int32(g.r.Intn(200) - 100)
			return fmt.Sprintf("(%d)", v), func(_, _, _ int32) int32 { return v }
		}
	}
	ls, lf := g.gen(d + 1)
	rs, rf := g.gen(d + 1)
	switch g.r.Intn(14) {
	case 0:
		return fmt.Sprintf("(%s + %s)", ls, rs), func(a, b, c int32) int32 { return lf(a, b, c) + rf(a, b, c) }
	case 1:
		return fmt.Sprintf("(%s - %s)", ls, rs), func(a, b, c int32) int32 { return lf(a, b, c) - rf(a, b, c) }
	case 2:
		return fmt.Sprintf("(%s * %s)", ls, rs), func(a, b, c int32) int32 { return lf(a, b, c) * rf(a, b, c) }
	case 3:
		sh := g.r.Intn(8)
		return fmt.Sprintf("(%s << %d)", ls, sh), func(a, b, c int32) int32 { return lf(a, b, c) << sh }
	case 4:
		sh := g.r.Intn(8)
		return fmt.Sprintf("(%s >> %d)", ls, sh), func(a, b, c int32) int32 { return lf(a, b, c) >> sh }
	case 5:
		return fmt.Sprintf("(%s & %s)", ls, rs), func(a, b, c int32) int32 { return lf(a, b, c) & rf(a, b, c) }
	case 6:
		return fmt.Sprintf("(%s | %s)", ls, rs), func(a, b, c int32) int32 { return lf(a, b, c) | rf(a, b, c) }
	case 7:
		return fmt.Sprintf("(%s ^ %s)", ls, rs), func(a, b, c int32) int32 { return lf(a, b, c) ^ rf(a, b, c) }
	case 8:
		cs, cf := g.gen(d + 1)
		return fmt.Sprintf("(%s ? %s : %s)", cs, ls, rs), func(a, b, c int32) int32 {
			if cf(a, b, c) != 0 {
				return lf(a, b, c)
			}
			return rf(a, b, c)
		}
	case 9:
		return fmt.Sprintf("min(%s, %s)", ls, rs), func(a, b, c int32) int32 {
			l, r := lf(a, b, c), rf(a, b, c)
			if l < r {
				return l
			}
			return r
		}
	case 10:
		return fmt.Sprintf("(%s < %s)", ls, rs), func(a, b, c int32) int32 {
			if lf(a, b, c) < rf(a, b, c) {
				return 1
			}
			return 0
		}
	case 11:
		pw := int32(1) << (1 + g.r.Intn(4))
		return fmt.Sprintf("(%s / %d)", ls, pw), func(a, b, c int32) int32 { return lf(a, b, c) / pw }
	case 12:
		return fmt.Sprintf("(byte)(%s)", ls), func(a, b, c int32) int32 { return lf(a, b, c) & 0xff }
	default:
		return fmt.Sprintf("abs(%s)", ls), func(a, b, c int32) int32 {
			v := lf(a, b, c)
			if v < 0 {
				return -v
			}
			return v
		}
	}
}

// Kernel returns the source of a random pixel-loop kernel
//
//	kernel gen(int in[], int out[], int n)
//
// built to make every optimizer pass fire: random expressions over
// loads of in at induction offsets (in[i+k], in[i*2+k], 0 <= k < 8) and
// constant addresses (in[k]); a local array indexed by constants only,
// which Scalarize promotes; an if/else diamond and an if triangle over
// scalars, which IfConvert collapses, beside a ?: the frontend lowers
// to a select itself; a multiply-accumulate reduction of four to eight
// terms, long enough for Reassociate; and one to three scalars carried
// from one iteration to the next, each updated from an expression and
// the previous iteration's value of another, which chain unrolled
// copies together. It reads in[0 .. 2n+8) and writes out[0 .. 2n]:
// out[2n] is the carried state the loop leaves.
func Kernel(r *rand.Rand) string {
	expr := func() string {
		s, _ := Expr(r, 3)
		return s
	}
	k := func() int { return r.Intn(8) }
	var sb strings.Builder
	line := func(format string, args ...any) {
		fmt.Fprintf(&sb, "\t\t"+format+"\n", args...)
	}
	carried := []string{"carry"}
	for s := r.Intn(3); s > 0; s-- {
		carried = append(carried, fmt.Sprintf("s%d", len(carried)))
	}
	sb.WriteString("kernel gen(int in[], int out[], int n) {\n\tint i; int carry; int t[3];")
	for _, v := range carried[1:] {
		fmt.Fprintf(&sb, " int %s;", v)
	}
	sb.WriteString("\n\tcarry = 0;")
	for _, v := range carried[1:] {
		fmt.Fprintf(&sb, " %s = %d;", v, r.Intn(100))
	}
	sb.WriteString("\n\tfor (i = 0; i < n; i++) {\n")
	line("int a; int b; int c; int x; int y; int acc;")
	line("a = in[i + %d];", k())
	line("b = in[i * 2 + %d] - in[%d];", k(), k())
	line("c = in[i + %d] ^ carry;", k())
	for e := 0; e < 3; e++ {
		line("t[%d] = %s;", e, expr())
	}
	line("x = t[0] + t[2];")
	line("if (%s < %s) { x = %s; y = t[1]; } else { y = %s; }", expr(), expr(), expr(), expr())
	line("if (%s > 0) { y = y + %s; }", expr(), expr())
	line("acc = 0;")
	for term, n := 0, 4+r.Intn(5); term < n; term++ {
		line("acc += in[i + %d] * %d;", k(), r.Intn(31)-15)
	}
	// Each extra scalar reads the one after it (the last reads carry)
	// before that one is updated: every read is of the previous
	// iteration's value.
	for j := len(carried) - 1; j > 0; j-- {
		line("%s = %s + (%s ^ %s);", carried[j], expr(), carried[j], carried[(j+1)%len(carried)])
	}
	line("carry = (carry + %s) >> 1;", expr())
	line("out[i * 2] = (%s ? x : y) + acc;", expr())
	line("out[i * 2 + 1] = (t[1] ^ y) + carry;")
	sb.WriteString("\t}\n")
	fmt.Fprintf(&sb, "\tout[n * 2] = %s;\n}\n", strings.Join(carried, " ^ "))
	return sb.String()
}
