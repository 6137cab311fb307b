package customfit_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"customfit/internal/core"
	"customfit/internal/dse/dsetest"
	"customfit/internal/tables"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's report and studies blocks, and testdata/constants.txt")

// EXPERIMENTS.md's two printed blocks, each between its two lines.
const (
	reportBegin  = "<!-- BEGIN REPORT: cfp-explore -load results_full.json; rewrite with go test . -run TestExperimentsReport -update -->\n"
	reportEnd    = "<!-- END REPORT -->\n"
	studiesBegin = "<!-- BEGIN STUDIES: cfp-explore -studies; rewrite with go test . -run TestExperimentsStudies -update -->\n"
	studiesEnd   = "<!-- END STUDIES -->\n"
)

// TestExperimentsReport holds EXPERIMENTS.md to the shipped results:
// its report block is what `cfp-explore -load results_full.json`
// prints, fenced, so no measured number in it is typed by hand. A
// change that moves a number fails here with the document's lines that
// no longer read true; when the move is intended, rewrite the blocks:
//
//	go test . -run TestExperiments -update
func TestExperimentsReport(t *testing.T) {
	checkBlock(t, reportBegin, reportEnd, tables.Report(dsetest.Shipped(t)))
}

// TestExperimentsStudies holds EXPERIMENTS.md's studies block to what
// `cfp-explore -studies` prints at HEAD: the compile studies on their
// pinned inputs, compiled afresh.
func TestExperimentsStudies(t *testing.T) {
	out, err := core.Studies(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkBlock(t, studiesBegin, studiesEnd, out)
}

// checkBlock requires the block of EXPERIMENTS.md between the lines
// begin and end to be text, fenced; under -update it rewrites the block
// instead.
func checkBlock(t *testing.T, begin, end, text string) {
	t.Helper()
	raw, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	b, e := strings.Index(doc, begin), strings.Index(doc, end)
	if b < 0 || e < b {
		t.Fatalf("EXPERIMENTS.md has no block %q … %q", begin, end)
	}
	b += len(begin)
	want := "```text\n" + text + "```\n"
	if doc[b:e] == want {
		return
	}
	if *update {
		if err := os.WriteFile("EXPERIMENTS.md", []byte(doc[:b]+want+doc[e:]), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote EXPERIMENTS.md's block %q", strings.TrimSpace(begin))
		return
	}
	t.Errorf("EXPERIMENTS.md's block is not what the code prints (rewrite it with -update if the change is intended):\n%s",
		lineDiff(doc[b:e], want, strings.Count(doc[:b], "\n")+1))
}

// lineDiff names the lines of has, which starts on line first of its
// file, that differ from want: the span between their common head and
// tail, line by line when both spans are as long, else as the span each
// side holds. It shows at most 20 entries.
func lineDiff(has, want string, first int) string {
	h, w := strings.Split(has, "\n"), strings.Split(want, "\n")
	head := 0
	for head < len(h) && head < len(w) && h[head] == w[head] {
		head++
	}
	tail := 0
	for tail < len(h)-head && tail < len(w)-head && h[len(h)-1-tail] == w[len(w)-1-tail] {
		tail++
	}
	h, w = h[head:len(h)-tail], w[head:len(w)-tail]
	var out []string
	if len(h) == len(w) {
		for i := range h {
			if h[i] != w[i] {
				out = append(out, fmt.Sprintf("EXPERIMENTS.md:%d:\n  reads  %s\n  prints %s", first+head+i, h[i], w[i]))
			}
		}
	} else {
		for i, l := range h {
			out = append(out, fmt.Sprintf("EXPERIMENTS.md:%d: - %s", first+head+i, l))
		}
		for _, l := range w {
			out = append(out, "prints: + "+l)
		}
	}
	if len(out) > 20 {
		out = append(out[:20], fmt.Sprintf("... and %d more", len(out)-20))
	}
	return strings.Join(out, "\n")
}
