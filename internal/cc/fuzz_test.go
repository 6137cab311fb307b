package cc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"customfit/internal/cc/cctest"
	"customfit/internal/ir"
)

// This file pits randomly generated CKC expressions (cctest.Expr)
// against a direct AST evaluator: the expression is compiled through
// the full frontend and interpreted, and the result must match
// evaluating the same tree in Go with C semantics. Hundreds of random
// trees exercise operator precedence, ternaries, builtins, casts and
// the power-of-two division lowering in combination. The generator's
// kernels (cctest.Kernel) must at least compile here; what the
// optimizer makes of them is opt's test.

func TestRandomExpressionsAgainstDirectEvaluation(t *testing.T) {
	r := rand.New(rand.NewSource(20260705))
	inputs := [][3]int32{
		{0, 0, 0}, {1, -1, 2}, {255, 128, 7}, {-100, 99, -3},
		{2147483647, -2147483648, 1}, {12345, -9876, 42},
	}
	for trial := 0; trial < 200; trial++ {
		src, eval := cctest.Expr(r, 4)
		kernel := fmt.Sprintf(`kernel f(int out[], int a, int b, int c) { out[0] = %s; }`, src)
		fn, err := CompileKernel(kernel)
		if err != nil {
			t.Fatalf("trial %d: compile %q: %v", trial, src, err)
		}
		for _, in := range inputs {
			out := []int32{0}
			env := ir.NewEnv(in[0], in[1], in[2]).Bind("out", out)
			if _, err := ir.Interp(fn, env); err != nil {
				t.Fatalf("trial %d: interp %q: %v", trial, src, err)
			}
			if want := eval(in[0], in[1], in[2]); out[0] != want {
				t.Fatalf("trial %d: %s with (a,b,c)=%v = %d, want %d",
					trial, src, in, out[0], want)
			}
		}
	}
}

func TestRandomExpressionsSurviveParsing(t *testing.T) {
	// Unparenthesized mixes stress precedence handling: regenerate the
	// trees without the outer parens by stripping them and re-parsing.
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		src, _ := cctest.Expr(r, 3)
		flat := strings.ReplaceAll(src, "(", " ( ")
		kernel := fmt.Sprintf(`kernel f(int out[], int a, int b, int c) { out[0] = %s; }`, flat)
		if _, err := CompileKernel(kernel); err != nil {
			t.Fatalf("trial %d: %q: %v", trial, flat, err)
		}
	}
}

func TestRandomKernelsCompile(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		src := cctest.Kernel(r)
		fn, err := CompileKernel(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		if fn.Loop == nil {
			t.Fatalf("trial %d: no pixel loop\n%s", trial, src)
		}
	}
}
