package cc_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/cc"
	"customfit/internal/cc/cctest"
)

// frontendDigest is the sha256 of everything TestFrontendDigest feeds
// the frontend, as the recursive-descent parser over a pre-lexed token
// slice, with a map per scope, produced it. A change to the frontend's
// memory must not move it: same instructions in the same order, same
// registers, block names, memories and diagnostics.
const frontendDigest = "92fb9eb7a9ff967bf9b124717cac77b4b9e667f04b731aa628070e969aa745ec"

// TestFrontendDigest pins the frontend's output: the lowered IR (its
// text, its pixel loop and every memory's initial contents) of the
// suite's kernels, of 200 cctest.Kernel draws and of 200 cctest.Expr
// kernels, and the diagnostic of every suite source cut off at 40
// offsets and of a few sources whose first lexical error lies past
// their first syntax error (the lexical one is reported).
func TestFrontendDigest(t *testing.T) {
	h := sha256.New()
	for _, b := range bench.All() {
		digestCompile(h, b.Source)
	}
	r := rand.New(rand.NewSource(38))
	for i := 0; i < 200; i++ {
		digestCompile(h, cctest.Kernel(r))
	}
	for i := 0; i < 200; i++ {
		src, _ := cctest.Expr(r, 4)
		digestCompile(h, fmt.Sprintf(`kernel f(int out[], int a, int b, int c) { out[0] = %s; }`, src))
	}
	for _, b := range bench.All() {
		for i := 0; i < 40; i++ {
			digestCompile(h, b.Source[:i*len(b.Source)/40])
		}
	}
	for _, src := range diagnosticSources {
		digestCompile(h, src)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != frontendDigest {
		t.Fatalf("frontend digest %s, want %s", got, frontendDigest)
	}
}

var diagnosticSources = []string{
	"kernel ) $",
	"kernel k() { x = 1 @ }",
	"kernel k() { int x = 0x; }",
	"kernel k(int n) { n = ; /* open",
	"kernel k(int n) { n = 99999999999; }",
	"kernel k(int n) { n = (short) n + (int) n; m = 1; }",
	"kernel k(int n) { int a[4]; a = 1; }",
}

func digestCompile(h hash.Hash, src string) {
	fns, err := cc.Compile(src)
	if err != nil {
		fmt.Fprintf(h, "error: %v\n", err)
		return
	}
	fmt.Fprintf(h, "ok: %d\n", len(fns))
	for _, fn := range fns {
		io.WriteString(h, fn.String())
		if l := fn.Loop; l != nil {
			fmt.Fprintf(h, "loop %s %s %s %s %s %s %d\n", l.Preheader.Name, l.Header.Name,
				l.Latch.Name, l.Exit.Name, l.IndVar, l.Limit, l.Step)
		}
		for _, m := range fn.Mems {
			fmt.Fprintf(h, "init %s %v\n", m.Name, m.Init)
		}
	}
}

// TestNestingLimit pins cc.MaxNesting: each way CKC nests — parentheses,
// prefix operators, left-associative operator chains, ternary arms,
// blocks and else-if chains — compiles a little under the bound and is
// refused with a positioned diagnostic one level past it.
func TestNestingLimit(t *testing.T) {
	forms := map[string]func(n int) string{
		"parentheses": func(n int) string {
			return "kernel k(int o[]) { o[0] = " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "; }"
		},
		"prefix operators": func(n int) string {
			return "kernel k(int o[]) { o[0] = " + strings.Repeat("~", n) + "1; }"
		},
		"operator chains": func(n int) string {
			return "kernel k(int o[], int a) { o[0] = " + strings.Repeat("a + ", n) + "a; }"
		},
		"ternary arms": func(n int) string {
			return "kernel k(int o[], int a) { o[0] = " + strings.Repeat("a ? 1 : ", n) + "2; }"
		},
		"blocks": func(n int) string {
			return "kernel k(int o[]) " + strings.Repeat("{", n+1) + " o[0] = 1; " + strings.Repeat("}", n+1)
		},
		"else-if chains": func(n int) string {
			return "kernel k(int o[], int a) { " + strings.Repeat("if (a) o[0] = 1; else ", n) + "o[0] = 2; }"
		},
	}
	for name, form := range forms {
		if _, err := cc.Compile(form(cc.MaxNesting - 10)); err != nil {
			t.Errorf("%s %d deep: %v", name, cc.MaxNesting-10, err)
		}
		_, err := cc.Compile(form(cc.MaxNesting + 1))
		var diag *cc.Error
		if !errors.As(err, &diag) || diag.Pos.Line < 1 || !strings.Contains(diag.Msg, "nesting") {
			t.Errorf("%s %d deep: got %v, want a positioned nesting diagnostic", name, cc.MaxNesting+1, err)
		}
	}
}

// deepSource is a kernel whose initializer opens a megabyte of
// parentheses, less a little so that it still fits a cfp-serve submit:
// what used to grow the parser's stack past the runtime's limit.
var deepSource = "kernel k(int n) { int x = " + strings.Repeat("(", 1048376) + "1; }"

// TestDeepSourceSmallStack compiles deepSource, and a megabyte-long sum
// (parsed in a loop, but checked and lowered by recursion down its
// left-deep tree), with the stack of a goroutine capped at 64 MiB: the
// runtime kills the process, not the test, if the frontend recurses once
// per parenthesis or operator.
func TestDeepSourceSmallStack(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	for _, src := range []string{deepSource, "kernel k(int n) { int x = " + strings.Repeat("n+", 524188) + "1; }"} {
		_, err := cc.Compile(src)
		var diag *cc.Error
		if !errors.As(err, &diag) {
			t.Fatalf("got %v, want a positioned diagnostic", err)
		}
	}
}

// TestFrontendAllocs pins what compiling each suite kernel allocates, in
// a warm workspace: the AST by the chunk, scopes and buffers borrowed,
// the lowered function in one exactly sized slab. A few more than the
// measured counts, so that an allocation per token, node, scope or
// instruction fails it.
func TestFrontendAllocs(t *testing.T) {
	// Measured: A 64, C 71, D 48, E 48, F 72, G 45, H 62, GF 113,
	// GEF 124, DH 70, DHEF 99 (2 174 for C before the arenas).
	want := map[string]float64{
		"A": 70, "C": 78, "D": 53, "E": 53, "F": 78, "G": 50, "H": 68,
		"GF": 122, "GEF": 134, "DH": 76, "DHEF": 107,
	}
	for _, b := range bench.All() {
		got := testing.AllocsPerRun(50, func() {
			if _, err := cc.CompileKernel(b.Source); err != nil {
				t.Fatal(err)
			}
		})
		if got > want[b.Name] {
			t.Errorf("%s: %.0f allocations per compile, want at most %.0f", b.Name, got, want[b.Name])
		}
	}
}

// BenchmarkFrontend is the frontend as a layer: cc.Compile (lex, parse,
// check, lower, verify) of the suite's eleven sources per op.
func BenchmarkFrontend(b *testing.B) {
	suite := bench.All()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, k := range suite {
			if _, err := cc.Compile(k.Source); err != nil {
				b.Fatal(err)
			}
		}
	}
}
