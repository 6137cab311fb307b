package dse

import (
	"fmt"
	"slices"
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
// calls out, each switched off in isolation by its process-wide switch
// (none for the full pipeline).
var ablationConfigs = []struct {
	name string
	off  *bool
}{
	{"full", nil},
	{"no-reassociation", &opt.AblateReassociation},
	{"no-licm", &opt.AblateLICM},
	{"no-if-conversion", &opt.AblateIfConversion},
	{"no-pressure-throttle", &sched.AblatePressureThrottle},
}

// RunAblation evaluates each benchmark on each machine with each design
// choice disabled in isolation. It is single-threaded by construction
// (the ablation switches are globals), and must not overlap other
// compiles in the process; each switch is reset on the way out, a panic
// included.
func RunAblation(benches []*bench.Benchmark, archs []machine.Arch, width int) []AblationResult {
	var out []AblationResult
	baseCycles := map[string]int64{}
	for _, cfg := range ablationConfigs {
		func() {
			if cfg.off != nil {
				*cfg.off = true
				defer func() { *cfg.off = false }()
			}
			ev := NewEvaluator() // fresh caches: prepared IR depends on the switches
			ev.Width = width
			for _, b := range benches {
				for _, a := range archs {
					e := ev.Evaluate(b, a)
					r := AblationResult{
						Config: cfg.name, Bench: b.Name, Arch: a,
						Cycles: e.Cycles, Unroll: e.Unroll, Failed: e.Failed,
					}
					key := b.Name + a.String()
					if cfg.off == nil {
						baseCycles[key] = e.Cycles
					}
					if base := baseCycles[key]; base > 0 && !e.Failed {
						r.Slowdown = float64(e.Cycles) / float64(base)
					}
					out = append(out, r)
				}
			}
		}()
	}
	return out
}

// SummarizeAblation renders the cycle slowdown of each switched-off
// choice (a column) on each benchmark × machine (a row), and each
// column's mean over the cells that compiled.
func SummarizeAblation(results []AblationResult) string {
	var configs, cells []string
	byCell := map[string]map[string]AblationResult{}
	for _, r := range results {
		cell := fmt.Sprintf("  %-5s %-18s", r.Bench, r.Arch)
		if byCell[cell] == nil {
			cells = append(cells, cell)
			byCell[cell] = map[string]AblationResult{}
		}
		if r.Config != "full" && !slices.Contains(configs, r.Config) {
			configs = append(configs, r.Config)
		}
		byCell[cell][r.Config] = r
	}
	var sb strings.Builder
	sb.WriteString("ablation: cycle slowdown vs the full pipeline, per benchmark × machine and mean\n")
	fmt.Fprintf(&sb, "  %-5s %-18s", "bench", "machine")
	for _, cfg := range configs {
		fmt.Fprintf(&sb, "  %s", cfg)
	}
	sums, counts := map[string]float64{}, map[string]int{}
	for _, cell := range cells {
		sb.WriteString("\n" + cell)
		for _, cfg := range configs {
			v := "-"
			if r := byCell[cell][cfg]; r.Failed {
				v = "failed"
			} else if r.Slowdown > 0 {
				v = fmt.Sprintf("%.2fx", r.Slowdown)
				sums[cfg] += r.Slowdown
				counts[cfg]++
			}
			fmt.Fprintf(&sb, "  %*s", len(cfg), v)
		}
	}
	fmt.Fprintf(&sb, "\n  %-24s", "mean")
	for _, cfg := range configs {
		v := "-"
		if counts[cfg] > 0 {
			v = fmt.Sprintf("%.2fx", sums[cfg]/float64(counts[cfg]))
		}
		fmt.Fprintf(&sb, "  %*s", len(cfg), v)
	}
	sb.WriteString("\n")
	return sb.String()
}
