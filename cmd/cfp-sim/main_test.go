package main

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestReport builds the tool and runs F on the baseline machine: the
// report names the run's occupancies, bound and stall cycles on one
// line, and the output verifies against the golden model.
func TestReport(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "cfp-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-bench", "F").CombinedOutput()
	if err != nil {
		t.Fatalf("cfp-sim: %v\n%s", err, out)
	}
	for _, re := range []*regexp.Regexp{
		regexp.MustCompile(`(?m)^benchmark F on \(1 1 64 1 8 1\) \(unroll 1, width 256\)$`),
		regexp.MustCompile(`(?m)^  occupancy     ALU \d+%  MUL \d+%  L1 \d+%  L2 \d+%  \(bound by (alu|mul|l1|l2|none), \d+ stall cycles\)$`),
		regexp.MustCompile(`(?m)^  output        VERIFIED against golden model$`),
	} {
		if !re.Match(out) {
			t.Errorf("no line matches %s in:\n%s", re, out)
		}
	}
	if n := strings.Count(string(out), "\n"); n != 9 {
		t.Errorf("%d lines, want 9:\n%s", n, out)
	}
}
