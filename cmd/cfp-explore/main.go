// cfp-explore runs the paper's design-space exploration and regenerates
// its tables and figures.
//
// Typical usage:
//
//	cfp-explore -save results.json          # full run (all machines × all benchmarks)
//	cfp-explore -load results.json          # the report EXPERIMENTS.md holds
//	cfp-explore -load results.json -table 8 # reprint Table 8 from a saved run
//	cfp-explore -load results.json -figure 3 -ascii
//	cfp-explore -table 6                    # cost model only, no exploration
//	cfp-explore -studies                    # the compile studies EXPERIMENTS.md holds
//
// Observability (see docs/OBSERVABILITY.md):
//
// Persistent caching (see docs/PERFORMANCE.md):
//
//	cfp-explore -cache-dir .cfp-cache -save results.json
//	  First run fills the cache; re-runs with the same flags are
//	  near-instant and bit-identical. -cache=off ignores the directory
//	  for one run without clearing it.
//
// Observability, continued:
//
//	cfp-explore -sample 8 -trace trace.json -metrics metrics.json
//	  -trace FILE    Chrome trace_event JSON of every pipeline span
//	                 (parse, opt passes, partition, schedule, regalloc,
//	                 spill, reference sim) — open in chrome://tracing or
//	                 Perfetto
//	  -metrics FILE  flat JSON dump: compiles/sec, failures, per-worker
//	                 busy/queue-wait time, per-phase span totals
//	  -pprof ADDR    live net/http/pprof endpoint while exploring
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"customfit/internal/bench"
	"customfit/internal/cli"
	"customfit/internal/core"
	"customfit/internal/dist"
	"customfit/internal/dse"
	"customfit/internal/machine"
	"customfit/internal/tables"
)

// parseWorkers interprets the dual-mode -workers flag: a bare integer
// is the local compile-worker count; anything else is a comma-separated
// list of cfp-serve base URLs ("http://" assumed when no scheme is
// given) selecting a distributed run.
func parseWorkers(s string) (fleet []string, local int, err error) {
	s = strings.TrimSpace(s)
	if n, aerr := strconv.Atoi(s); aerr == nil {
		return nil, n, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if !strings.Contains(part, "://") {
			part = "http://" + part
		}
		fleet = append(fleet, part)
	}
	if len(fleet) == 0 {
		return nil, 0, fmt.Errorf("-workers %q: want a worker count or a comma-separated list of cfp-serve URLs", s)
	}
	return fleet, 0, nil
}

var tool *cli.Tool

func main() {
	var (
		table    = flag.Int("table", 0, "regenerate one paper table (3, 6, 7, 8, 9, 10); 0 = the whole report (tables, claims, frontier, failed cells)")
		figure   = flag.Int("figure", 0, "emit a paper figure's data (3 or 4)")
		ascii    = flag.Bool("ascii", true, "render figures as ASCII scatter plots (false = CSV)")
		svgDir   = flag.String("svg", "", "also write figures as SVG files into this directory")
		width    = flag.Int("width", 96, "reference workload width in pixels")
		workers  = flag.String("workers", "0", "parallel compile workers (0 = GOMAXPROCS), or a comma-separated list of cfp-serve URLs for a distributed run (e.g. http://h1:8080,http://h2:8080 — see docs/DISTRIBUTED.md)")
		save     = flag.String("save", "", "save exploration results to this JSON file")
		load     = flag.String("load", "", "load previously saved results instead of exploring")
		sample   = flag.Int("sample", 1, "evaluate every Nth machine (1 = full space)")
		progress = flag.Bool("progress", true, "print progress while exploring")
		studies  = flag.Bool("studies", false, "run the compile studies (cluster correction, ablations, repertoire, search) on their pinned inputs, print them and exit")
	)
	tool = cli.NewTool("cfp-explore", cli.WithCache(), cli.WithOps())
	flag.Parse()
	if err := tool.Start(); err != nil {
		fatal(err)
	}
	defer tool.Close()

	if *studies {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		out, err := core.Studies(ctx)
		stop()
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		return
	}

	// Tables 1/2/6/7 need no exploration.
	if *table == 1 || *table == 2 {
		var ind, jam []tables.BenchDesc
		for _, b := range bench.Individual() {
			ind = append(ind, tables.BenchDesc{Name: b.Name, Desc: b.Desc})
		}
		for _, b := range bench.Jammed() {
			jam = append(jam, tables.BenchDesc{Name: b.Name, Desc: b.Desc})
		}
		fmt.Print(tables.Table1And2(ind, jam))
		return
	}
	if *table == 6 {
		fmt.Print(tables.Table6(machine.DefaultCostModel))
		return
	}
	if *table == 7 {
		fmt.Print(tables.Table7(machine.DefaultCycleModel))
		return
	}

	var res *dse.Results
	var err error
	if *load != "" {
		res, err = dse.Load(*load)
		if err != nil {
			fatal(err)
		}
	} else {
		fleet, localWorkers, werr := parseWorkers(*workers)
		if werr != nil {
			fatal(werr)
		}
		if c := tool.CacheCfg; len(fleet) > 0 && (c.Dir != "" || c.Peer != "") {
			fatal(errors.New("-cache-dir and -cache-peer configure a local run's cache; a distributed run caches on its workers: give each cfp-serve its own -cache-dir or -cache-peer"))
		}
		// Custom-op axis: "off" (nil set) keeps the exploration
		// bit-identical to the 6-tuple era; "auto" mines the suite.
		opSet, oerr := core.ResolveOps(*tool.OpsSel, bench.All(), *width, *tool.OpsN)
		if oerr != nil {
			fatal(oerr)
		}
		if opSet != nil {
			fmt.Fprintf(os.Stderr, "custom ops: %s\n", strings.Join(opSet.Wire(), " | "))
		}
		// Ctrl-C stops scheduling new evaluations (and, distributed,
		// drains the fleet's in-flight shard jobs) and exits promptly
		// instead of killing the process mid-flight (telemetry and the
		// cache still flush).
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		if len(fleet) > 0 {
			// Distributed run: shard the grid across cfp-serve workers
			// and merge to the same Results a local run would produce.
			// -cache=off rides every shard request so the whole fleet
			// runs cold.
			res, err = dist.Explore(ctx, dist.Options{
				Workers:   fleet,
				Width:     *width,
				Sample:    *sample,
				Ops:       opSet,
				CacheMode: tool.CacheCfg.Mode,
			})
		} else {
			cache, cerr := tool.OpenCache()
			if cerr != nil {
				fatal(cerr)
			}
			opts := core.ExploreOptions{
				Sample:      *sample,
				Ops:         opSet,
				Width:       *width,
				Parallelism: localWorkers,
				Cache:       cache,
			}
			if *progress {
				opts.Progress = func(p dse.ProgressInfo) {
					if p.Done%25 == 0 || p.Done == p.Total {
						fmt.Fprintf(os.Stderr, "\rexploring: %d/%d evaluations  %.1f/s  ETA %-8v failures %d",
							p.Done, p.Total, p.RatePerSec, p.ETA.Round(time.Second), p.Failed)
						if p.Cancelled > 0 {
							fmt.Fprintf(os.Stderr, " cancelled %d", p.Cancelled)
						}
						fmt.Fprint(os.Stderr, " ")
						if p.Done == p.Total {
							fmt.Fprintln(os.Stderr)
						}
					}
				}
			}
			res, err = core.Explore(ctx, opts)
		}
		stop()
		if errors.Is(err, dse.ErrCancelled) {
			fmt.Fprintln(os.Stderr, "\ncfp-explore: interrupted, exploration abandoned")
			tool.Close()
			os.Exit(130)
		}
		if err != nil {
			fatal(err)
		}
		if *save != "" {
			if err := res.Save(*save); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "results saved to %s\n", *save)
		}
	}

	if *figure != 0 {
		var names []string
		switch *figure {
		case 3:
			for _, b := range bench.Individual() {
				if b.Name != "E" { // the paper's Figure 3 shows A C D F G H
					names = append(names, b.Name)
				}
			}
		case 4:
			for _, b := range bench.Jammed() {
				names = append(names, b.Name)
			}
		default:
			fatal(fmt.Errorf("unknown figure %d", *figure))
		}
		for _, n := range names {
			if *svgDir != "" {
				path := fmt.Sprintf("%s/figure%d-%s.svg", *svgDir, *figure, n)
				if err := os.WriteFile(path, []byte(tables.ScatterSVG(res, n, 0, 0)), 0o644); err != nil {
					fatal(err)
				}
				fmt.Fprintf(os.Stderr, "wrote %s\n", path)
			}
			if *ascii {
				fmt.Print(tables.ScatterASCII(res, n, 72, 16))
			} else {
				fmt.Print(tables.ScatterCSV(res, n))
			}
		}
		return
	}

	switch *table {
	case 0:
		fmt.Print(tables.Report(res))
	case 3:
		fmt.Print(tables.Stats(res.Stats))
	case 8, 9, 10:
		fmt.Print(tables.SelectionTable(res, *table))
	default:
		fatal(fmt.Errorf("unknown table %d", *table))
	}
}

func fatal(err error) {
	if tool != nil {
		tool.Fatal(err)
	}
	fmt.Fprintln(os.Stderr, "cfp-explore:", err)
	os.Exit(1)
}
