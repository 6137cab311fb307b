package dse

import (
	"fmt"
	"strings"

	"customfit/internal/bench"
	"customfit/internal/machine"
)

// RepertoireStudy evaluates each benchmark on each machine with and
// without the min/max repertoire — the opcode-choice experiment the
// paper's methodology supports but its evaluation deliberately skipped —
// and renders each benchmark's cycle gain (plain over min/max cycles,
// >1 = the repertoire helped) on the machines where both compiled: the
// mean, and the best with its machine.
func RepertoireStudy(benches []*bench.Benchmark, archs []machine.Arch, width int) string {
	ev := NewEvaluator()
	ev.Width = width
	var sb strings.Builder
	sb.WriteString("ALU repertoire extension: cycle gain from single-cycle min/max\n")
	sb.WriteString("(paper §2.2: \"our philosophy ... is to design an architecture from\n")
	sb.WriteString(" building blocks rather than synthesizing special-purpose hardware\" —\n")
	sb.WriteString(" this measures what one such block would have bought)\n")
	for _, b := range benches {
		n, mean, best := 0, 0.0, 0.0
		var bestArch machine.Arch
		for _, a := range archs {
			plain, mm := ev.Evaluate(b, a), ev.Evaluate(b, a.WithMinMax())
			if plain.Failed || mm.Failed {
				continue
			}
			gain := float64(plain.Cycles) / float64(mm.Cycles)
			n++
			mean += gain
			if gain > best {
				best, bestArch = gain, a
			}
		}
		if n > 0 {
			fmt.Fprintf(&sb, "  %-5s mean %.2fx, best %.2fx on %s\n", b.Name, mean/float64(n), best, bestArch)
		}
	}
	return sb.String()
}
