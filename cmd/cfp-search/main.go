// cfp-search compares design-space search strategies (exhaustive, hill
// climbing, simulated annealing, genetic) at finding the best
// architecture for a benchmark under a cost cap — the paper's third
// research question, quantified.
//
// The objective is the real thing: each evaluation compiles the
// benchmark for the candidate machine and measures speedup over the
// baseline. The candidates are the whole search sub-lattice, whose ±1
// neighbourhoods the local strategies move along.
//
// Usage:
//
//	cfp-search -bench D -cost 8 -seed 2026   # the search rows of cfp-explore -studies
//
// Telemetry: -trace FILE writes a Chrome trace of every candidate
// compilation, -metrics FILE writes the counters and span totals as
// Prometheus text exposition, -pprof ADDR serves live profiles. See docs/OBSERVABILITY.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"customfit/internal/bench"
	"customfit/internal/cli"
	"customfit/internal/core"
	"customfit/internal/search"
	"customfit/internal/tables"
)

func main() {
	var (
		benchName = flag.String("bench", "A", "benchmark to fit")
		costCap   = flag.Float64("cost", 10, "cost budget (relative to baseline)")
		seed      = flag.Int64("seed", 1, "random seed for the stochastic strategies")
		width     = flag.Int("width", 64, "reference workload width")
	)
	tool := cli.NewTool("cfp-search", cli.WithCache(), cli.WithOps())
	flag.Parse()
	if err := tool.Start(); err != nil {
		tool.Fatal(err)
	}
	defer tool.Close()

	b := bench.ByName(*benchName)
	if b == nil {
		tool.Fatal(fmt.Errorf("unknown benchmark %q", *benchName))
	}
	cache, err := tool.OpenCache()
	if err != nil {
		tool.Fatal(err)
	}
	opSet, err := core.ResolveOps(*tool.OpsSel, []*bench.Benchmark{b}, *width, *tool.OpsN)
	if err != nil {
		tool.Fatal(err)
	}
	machines := len(search.SubLattice())
	if opSet != nil {
		machines *= 2 // every point also appears with the full op set enabled
	}
	fmt.Printf("fitting %s under cost %.1f over %d machines (search sub-lattice)\n",
		b.Name, *costCap, machines)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	results, err := core.SearchCompare(ctx, core.SearchOptions{
		Benchmark: b,
		CostCap:   *costCap,
		Ops:       opSet,
		Width:     *width,
		Seed:      *seed,
		Cache:     cache,
	})
	stop()
	if errors.Is(err, core.ErrCancelled) {
		fmt.Fprintln(os.Stderr, "cfp-search: interrupted")
		tool.Close()
		os.Exit(130)
	}
	if err != nil {
		tool.Fatal(err)
	}
	fmt.Print(tables.Search(results))
}
