// cfp-frontier prints, from a saved exploration, each benchmark's best
// architecture under a sweep of cost caps (a textual reading of the
// paper's Figures 3/4 frontiers) and the overall per-benchmark maxima.
//
// Usage:
//
//	cfp-frontier -load results.json -caps 5,10,15
//	cfp-frontier -explore -cache-dir .cfp-cache -caps 5,10,15
//
// With -explore the tool runs the exploration itself instead of
// loading a file; combined with -cache-dir (see docs/PERFORMANCE.md) a
// warm re-run costs almost nothing, making the saved-results file
// optional. -save persists the freshly explored results.
//
// Telemetry: -trace FILE / -metrics FILE / -pprof ADDR enable the
// standard observability flags (mostly useful with -explore; the load
// path compiles nothing). See docs/OBSERVABILITY.md.
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

	"customfit/internal/bench"
	"customfit/internal/cli"
	"customfit/internal/core"
	"customfit/internal/dse"
	"customfit/internal/machine"
	"customfit/internal/tables"
)

func main() {
	var (
		load    = flag.String("load", "results_full.json", "saved exploration results (cfp-explore -save)")
		caps    = flag.String("caps", "5,10,15,100", "comma-separated cost caps")
		explore = flag.Bool("explore", false, "run the exploration instead of loading a file (pairs well with -cache-dir)")
		save    = flag.String("save", "", "with -explore: save the results to this JSON file")
		width   = flag.Int("width", 96, "with -explore: reference workload width in pixels")
	)
	tool := cli.NewTool("cfp-frontier", cli.WithCache(), cli.WithOps())
	flag.Parse()
	if err := tool.Start(); err != nil {
		tool.Fatal(err)
	}
	defer tool.Close()

	var res *dse.Results
	var err error
	if *explore {
		opSet, oerr := core.ResolveOps(*tool.OpsSel, bench.All(), *width, *tool.OpsN)
		if oerr != nil {
			tool.Fatal(oerr)
		}
		if opSet != nil {
			fmt.Printf("custom ops: %s\n", strings.Join(opSet.Wire(), " | "))
		}
		cache, cerr := tool.OpenCache()
		if cerr != nil {
			tool.Fatal(cerr)
		}
		// Ctrl-C abandons the exploration and exits promptly (telemetry
		// and the cache still flush).
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		res, err = core.Explore(ctx, core.ExploreOptions{Ops: opSet, Width: *width, Cache: cache})
		stop()
		if errors.Is(err, core.ErrCancelled) {
			fmt.Fprintln(os.Stderr, "cfp-frontier: interrupted, exploration abandoned")
			tool.Close()
			os.Exit(130)
		}
		if err == nil && *save != "" {
			err = res.Save(*save)
		}
	} else {
		res, err = dse.Load(*load)
	}
	if err != nil {
		tool.Fatal(err)
	}
	var capList []float64
	for _, s := range strings.Split(*caps, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			tool.Fatal(fmt.Errorf("bad cap: %s", s))
		}
		capList = append(capList, v)
	}
	names := res.Benches
	fmt.Print(tables.FrontierSummary(res, names, capList))
	fmt.Println()
	for _, n := range names {
		best, cost := 0.0, 0.0
		var arch string
		for _, p := range res.Scatter(n) {
			if p.Speedup > best {
				best, cost, arch = p.Speedup, p.Cost, p.Arch.String()
			}
		}
		fmt.Printf("%-5s max speedup %.2fx at cost %.1f on %s\n", n, best, cost, arch)
	}
	opsGains(res, names)
}

// opsGains reports, for op-aware explorations, each benchmark's best
// simulated-cycle improvement from enabling custom ops on a machine
// versus the same base machine without them (the datapath is the same
// 6-tuple; the cost delta is exactly the op hardware's price). Silent
// when the results carry no op-enabled architectures.
func opsGains(res *dse.Results, names []string) {
	hasOps := false
	for _, a := range res.Archs {
		if !a.Ops.Empty() {
			hasOps = true
			break
		}
	}
	if !hasOps {
		return
	}
	fmt.Println("\n== Custom-op gains (best cycle improvement vs the same machine without ops) ==")
	improved := 0
	for _, n := range names {
		evs := res.Eval[n]
		// Best op-free cycles per base 6-tuple.
		plain := map[machine.Arch]int64{}
		for _, ev := range evs {
			if ev.Failed || !ev.Arch.Ops.Empty() {
				continue
			}
			if c, ok := plain[ev.Arch]; !ok || ev.Cycles < c {
				plain[ev.Arch] = ev.Cycles
			}
		}
		type gain struct {
			pct        float64
			was, now   int64
			cost, base float64
			arch       machine.Arch
		}
		var best *gain
		for _, ev := range evs {
			if ev.Failed || ev.Arch.Ops.Empty() {
				continue
			}
			base := ev.Arch
			base.Ops = machine.OpConfig{}
			was, ok := plain[base]
			if !ok || ev.Cycles >= was {
				continue
			}
			g := gain{
				pct:  100 * float64(was-ev.Cycles) / float64(was),
				was:  was,
				now:  ev.Cycles,
				cost: machine.DefaultCostModel.Cost(ev.Arch),
				base: machine.DefaultCostModel.Cost(base),
				arch: ev.Arch,
			}
			if best == nil || g.pct > best.pct {
				best = &g
			}
		}
		if best == nil {
			fmt.Printf("%-5s no cycle improvement from the op set\n", n)
			continue
		}
		improved++
		fmt.Printf("%-5s cycles %d -> %d  (-%.1f%%)  cost %.2f -> %.2f  on %s\n",
			n, best.was, best.now, best.pct, best.base, best.cost, best.arch)
	}
	fmt.Printf("custom ops improved simulated cycles on %d/%d benchmarks\n", improved, len(names))
}
