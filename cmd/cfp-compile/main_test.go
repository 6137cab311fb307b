package main

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSummary builds the tool and compiles F for the baseline machine:
// two statistics lines, the second the profile of the program image
// (every block executed once) in cfp-sim's occupancy format, with the
// share of operations that are inter-cluster moves.
func TestSummary(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "cfp-compile")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-bench", "F", "-quiet").CombinedOutput()
	if err != nil {
		t.Fatalf("cfp-compile: %v\n%s", err, out)
	}
	want := []*regexp.Regexp{
		regexp.MustCompile(`^; F on \(1 1 64 1 8 1\), unroll 1$`),
		regexp.MustCompile(`^; bundles=\d+ ops=\d+ static IPC=\d+\.\d\d spilled=\d+ regs, cost=1\.00 derate=1\.00$`),
		regexp.MustCompile(`^; occupancy ALU \d+%  MUL \d+%  L1 \d+%  L2 \d+%  \(bound by (alu|mul|l1|l2|none), \d+ stall cycles\), moves \d+% of ops$`),
	}
	lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("%d lines, want %d:\n%s", len(lines), len(want), out)
	}
	for i, re := range want {
		if !re.MatchString(lines[i]) {
			t.Errorf("line %d %q does not match %s", i+1, lines[i], re)
		}
	}
}
