package opt_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/ir"
	"customfit/internal/opt"
)

var updatePrepared = flag.Bool("update", false, "regenerate testdata/prepared.sha256 from the current code")

const preparedPath = "testdata/prepared.sha256"

// unrollFactors is the explorer's sweep (dse.UnrollFactors; dse imports
// opt, so the test spells it out).
var unrollFactors = []int{1, 2, 4, 8}

// preparedDigest is what the table pins of one prepared kernel: the
// SHA-256 of its listing (every register number, offset and block name,
// in block order), its register count and its loop metadata. A kernel
// that does not prepare pins its error text instead.
func preparedDigest(g *ir.Func, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00regs=%d\x00blocks=", g.String(), g.NumRegs())
	for _, b := range g.Blocks {
		fmt.Fprintf(h, "%s,", b.Name)
	}
	if l := g.Loop; l != nil {
		fmt.Fprintf(h, "\x00loop=%s,%s,%s,%s,%s,%s,%d",
			l.Preheader.Name, l.Header.Name, l.Latch.Name, l.Exit.Name, l.IndVar, l.Limit, l.Step)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// preparedTable renders one line per (kernel, unroll factor) cell of the
// suite, digesting what prepare returns for it.
func preparedTable(t *testing.T, prepare func(fn *ir.Func, u int) (*ir.Func, error)) string {
	t.Helper()
	var sb strings.Builder
	for _, b := range bench.All() {
		fn, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range unrollFactors {
			fmt.Fprintf(&sb, "%s %d %s\n", b.Name, u, preparedDigest(prepare(fn, u)))
		}
	}
	return sb.String()
}

// diffTables reports the cells on which two tables disagree.
func diffTables(t *testing.T, what, got, want string) {
	t.Helper()
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	if len(g) != len(w) {
		t.Fatalf("%s: %d lines, want %d", what, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("%s:\n got  %s\n want %s", what, g[i], w[i])
		}
	}
}

// TestPreparedGolden pins the prepared IR of every (kernel, unroll
// factor) cell to the table recorded from the tree before the passes
// moved onto the workspace: the rewritten passes must produce the same
// instructions with the same register numbers in the same order — which
// is what lets dse.prepPipelineVersion stand and cache directories stay
// warm. The over-budget cells pin their error text.
//
// Regenerate after an intentional change of the prepared IR (and bump
// dse.prepPipelineVersion) with:
//
//	go test ./internal/opt/ -run TestPreparedGolden -update
func TestPreparedGolden(t *testing.T) {
	got := preparedTable(t, opt.Prepare)
	if *updatePrepared {
		if err := os.WriteFile(preparedPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", preparedPath)
		return
	}
	want, err := os.ReadFile(preparedPath)
	if err != nil {
		t.Fatal(err)
	}
	diffTables(t, "opt.Prepare against "+preparedPath, got, string(want))
}

// TestPrepareSplitMatchesPrepare holds the two halves of Prepare to the
// whole: optimizing one clone per kernel and unrolling a clone of that
// per factor — what the explorer's evaluator does — gives opt.Prepare's
// result cell for cell, error cells included.
func TestPrepareSplitMatchesPrepare(t *testing.T) {
	optimized := map[*ir.Func]*ir.Func{}
	split := preparedTable(t, func(fn *ir.Func, u int) (*ir.Func, error) {
		g := optimized[fn]
		if g == nil {
			g = fn.Clone()
			if err := opt.OptimizeSpan(nil, g, opt.Passes{}); err != nil {
				return nil, err
			}
			optimized[fn] = g
		}
		h := g.Clone()
		if err := opt.UnrollSpan(nil, h, u, opt.Passes{}); err != nil {
			return nil, err
		}
		return h, nil
	})
	diffTables(t, "optimize once, clone, unroll against opt.Prepare", split, preparedTable(t, opt.Prepare))
}
