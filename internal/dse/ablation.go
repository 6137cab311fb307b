package dse

import (
	"context"
	"fmt"
	"strings"

	"customfit/internal/bench"
	"customfit/internal/machine"
	"customfit/internal/opt"
	"customfit/internal/sched"
)

// AblationResult measures one benchmark × machine under one
// configuration of the compiler's design choices.
type AblationResult struct {
	Config string
	Bench  string
	Arch   machine.Arch
	Cycles int64
	Unroll int
	// Slowdown is Cycles / full-pipeline Cycles (1.0 = no effect).
	Slowdown float64
	Failed   bool
}

// ablationConfigs enumerates the compiler design choices DESIGN.md
// calls out, each switched off in isolation by a backend variant (the
// zero one for the full pipeline).
var ablationConfigs = []struct {
	name    string
	variant sched.Variant
}{
	{"full", sched.Variant{}},
	{"no-reassociation", sched.Variant{Passes: opt.Passes{NoReassociation: true}}},
	{"no-licm", sched.Variant{Passes: opt.Passes{NoLICM: true}}},
	{"no-if-conversion", sched.Variant{Passes: opt.Passes{NoIfConversion: true}}},
	{"no-pressure-throttle", sched.Variant{NoPressureThrottle: true}},
}

// RunAblation evaluates each benchmark on each machine with each design
// choice disabled in isolation: one parallel exploration (Explorer.Measure)
// of the grid per configuration, under ctx. Results run configuration
// by configuration, each benchmark by benchmark over archs. Cancelling
// ctx returns an error wrapping ErrCancelled.
func RunAblation(ctx context.Context, benches []*bench.Benchmark, archs []machine.Arch, width int) ([]AblationResult, error) {
	var out []AblationResult
	var full *Results
	for _, cfg := range ablationConfigs {
		res, err := (&Explorer{EvalConfig: EvalConfig{Width: width, Variant: cfg.variant}, Benchmarks: benches, Archs: archs}).Measure(ctx)
		if err != nil {
			return nil, err
		}
		if full == nil {
			full = res
		}
		for _, b := range benches {
			for i, e := range res.Eval[b.Name] {
				r := AblationResult{
					Config: cfg.name, Bench: b.Name, Arch: e.Arch,
					Cycles: e.Cycles, Unroll: e.Unroll, Failed: e.Failed,
				}
				if base := full.Eval[b.Name][i].Cycles; base > 0 && !e.Failed {
					r.Slowdown = float64(e.Cycles) / float64(base)
				}
				out = append(out, r)
			}
		}
	}
	return out, nil
}

// SummarizeAblation renders RunAblation's results: the cycle slowdown
// of each switched-off choice (a column) on each benchmark × machine (a
// row), and each column's mean over the cells that compiled.
func SummarizeAblation(results []AblationResult) string {
	configs := ablationConfigs[1:]
	n := len(results) / len(ablationConfigs) // cells a configuration
	var sb strings.Builder
	sb.WriteString("ablation: cycle slowdown vs the full pipeline, per benchmark × machine and mean\n")
	fmt.Fprintf(&sb, "  %-5s %-18s", "bench", "machine")
	for _, cfg := range configs {
		fmt.Fprintf(&sb, "  %s", cfg.name)
	}
	sums, counts := make([]float64, len(configs)), make([]int, len(configs))
	for i, cell := range results[:n] {
		fmt.Fprintf(&sb, "\n  %-5s %-18s", cell.Bench, cell.Arch)
		for k, cfg := range configs {
			v := "-"
			if r := results[(k+1)*n+i]; r.Failed {
				v = "failed"
			} else if r.Slowdown > 0 {
				v = fmt.Sprintf("%.2fx", r.Slowdown)
				sums[k] += r.Slowdown
				counts[k]++
			}
			fmt.Fprintf(&sb, "  %*s", len(cfg.name), v)
		}
	}
	fmt.Fprintf(&sb, "\n  %-24s", "mean")
	for k, cfg := range configs {
		v := "-"
		if counts[k] > 0 {
			v = fmt.Sprintf("%.2fx", sums[k]/float64(counts[k]))
		}
		fmt.Fprintf(&sb, "  %*s", len(cfg.name), v)
	}
	sb.WriteString("\n")
	return sb.String()
}
