package customfit_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"customfit/internal/dse/dsetest"
	"customfit/internal/tables"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's report block from results_full.json")

// The report block of EXPERIMENTS.md lies between these two lines.
const (
	reportBegin = "<!-- BEGIN REPORT: cfp-explore -load results_full.json; rewrite with go test . -run TestExperimentsReport -update -->\n"
	reportEnd   = "<!-- END REPORT -->\n"
)

// TestExperimentsReport holds EXPERIMENTS.md to the shipped results:
// its report block is what `cfp-explore -load results_full.json`
// prints, fenced, so no measured number in it is typed by hand. A
// change that moves a number fails here with the document's lines that
// no longer read true; when the move is intended, rewrite the block:
//
//	go test . -run TestExperimentsReport -update
func TestExperimentsReport(t *testing.T) {
	raw, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	begin, end := strings.Index(doc, reportBegin), strings.Index(doc, reportEnd)
	if begin < 0 || end < begin {
		t.Fatalf("EXPERIMENTS.md has no report block: want a line %q and, after it, %q", reportBegin, reportEnd)
	}
	begin += len(reportBegin)
	want := "```text\n" + tables.Report(dsetest.Shipped(t)) + "```\n"
	if doc[begin:end] == want {
		return
	}
	if *update {
		if err := os.WriteFile("EXPERIMENTS.md", []byte(doc[:begin]+want+doc[end:]), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("rewrote EXPERIMENTS.md's report block")
		return
	}
	t.Errorf("EXPERIMENTS.md's report block is not the report of results_full.json (rewrite it with -update if the change is intended):\n%s",
		lineDiff(doc[begin:end], want, strings.Count(doc[:begin], "\n")+1))
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
				out = append(out, fmt.Sprintf("EXPERIMENTS.md:%d:\n  reads  %s\n  report %s", first+head+i, h[i], w[i]))
			}
		}
	} else {
		for i, l := range h {
			out = append(out, fmt.Sprintf("EXPERIMENTS.md:%d: - %s", first+head+i, l))
		}
		for _, l := range w {
			out = append(out, "report: + "+l)
		}
	}
	if len(out) > 20 {
		out = append(out[:20], fmt.Sprintf("... and %d more", len(out)-20))
	}
	return strings.Join(out, "\n")
}
