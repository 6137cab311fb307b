package core

import (
	"context"
	"fmt"
	"strings"

	"customfit/internal/bench"
	"customfit/internal/dse"
	"customfit/internal/machine"
	"customfit/internal/search"
	"customfit/internal/tables"
)

// Studies runs the compile studies EXPERIMENTS.md reports beside the
// exploration and renders them as one block: the paper's §2.4 cluster
// correction, fit and then audited on held-out kernels; the compiler
// ablations; the min/max repertoire extension; and the search
// strategies of §1.1 Q3. Their inputs are pinned here and nowhere else,
// and each study's heading names them; the block is the same bytes on
// every run. Cancelling ctx returns ErrCancelled (wrapped), at the
// next study at the latest.
func Studies(ctx context.Context) (string, error) {
	const width = 96 // the exploration's reference workload
	var sb strings.Builder
	studies := []func() error{
		func() error {
			fit, fitAt := "D G C", tuples([][6]int{{8, 4, 256, 1, 4, 1}, {16, 8, 512, 2, 4, 1}})
			held, heldAt := "A F H DH", tuples([][6]int{{8, 2, 128, 1, 4, 1}, {16, 4, 512, 4, 2, 1}})
			fmt.Fprintf(&sb, "== Cluster correction (paper §2.4): κ fit on %s × %v, held out %s × %v, width %d ==\n",
				fit, fitAt, held, heldAt, width)
			ev := dse.NewEvaluator()
			ev.Width = width
			cor, err := dse.FitCorrections(ev, suite(fit), fitAt)
			if err != nil {
				return err
			}
			sb.WriteString(dse.SummarizeCorrectionStudy(cor, dse.ValidateCorrections(ev, cor, suite(held), heldAt)))
			return nil
		},
		func() error {
			names, archs := "A F H DHEF", tuples([][6]int{{8, 4, 256, 2, 4, 2}, {16, 4, 512, 4, 2, 4}, {16, 4, 128, 1, 4, 8}})
			fmt.Fprintf(&sb, "== Compiler ablations: %s × %v, width %d ==\n", names, archs, width)
			rs, err := dse.RunAblation(ctx, suite(names), archs, width)
			if err != nil {
				return err
			}
			sb.WriteString(dse.SummarizeAblation(rs))
			return nil
		},
		func() error {
			names, archs := "H DH DHEF D A", tuples([][6]int{{4, 2, 128, 2, 2, 1}, {8, 4, 256, 4, 2, 2}, {16, 4, 512, 4, 2, 4}})
			fmt.Fprintf(&sb, "== ALU repertoire extension: %s × %v, width %d ==\n", names, archs, width)
			sb.WriteString(dse.RepertoireStudy(suite(names), archs, width))
			return nil
		},
		func() error {
			// What `cfp-search -bench D -cost 8 -seed 2026` runs.
			opts := SearchOptions{Benchmark: bench.ByName("D"), CostCap: 8, Width: 64, Seed: 2026}
			fmt.Fprintf(&sb, "== Search strategies (paper §1.1 Q3): %s under cost %.1f over the %d-machine search sub-lattice, seed %d, width %d ==\n",
				opts.Benchmark.Name, opts.CostCap, len(search.SubLattice()), opts.Seed, opts.Width)
			rs, err := SearchCompare(ctx, opts)
			if err != nil {
				return err
			}
			sb.WriteString(tables.Search(rs))
			return nil
		},
	}
	for i, study := range studies {
		if ctx.Err() != nil {
			return "", fmt.Errorf("%w: %w", ErrCancelled, context.Cause(ctx))
		}
		if i > 0 {
			sb.WriteString("\n")
		}
		if err := study(); err != nil {
			return "", err
		}
	}
	return sb.String(), nil
}

// suite looks up space-separated benchmark names.
func suite(names string) []*bench.Benchmark {
	var out []*bench.Benchmark
	for _, n := range strings.Fields(names) {
		out = append(out, bench.ByName(n))
	}
	return out
}

// tuples builds machines from the paper's (a m r p2 l2 c) tuples.
func tuples(ts [][6]int) []machine.Arch {
	out := make([]machine.Arch, len(ts))
	for i, t := range ts {
		out[i] = machine.Arch{ALUs: t[0], MULs: t[1], Regs: t[2], L2Ports: t[3], L2Lat: t[4], Clusters: t[5]}
	}
	return out
}
