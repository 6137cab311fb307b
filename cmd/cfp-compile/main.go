// cfp-compile retargets a CKC kernel to one architecture and prints the
// scheduled VLIW assembly, compilation statistics, or the intermediate
// representation.
//
// Usage:
//
//	cfp-compile -arch "8 4 256 2 4 2" kernel.ck
//	cfp-compile -bench A -arch "4 2 256 1 4 4" -unroll 2
//	cfp-compile -bench F -ir            # dump lowered IR instead
//
// Telemetry: -trace FILE writes a Chrome trace of the compilation
// phases (parse, opt passes, partition, schedule, regalloc, spill),
// -metrics FILE writes the counters and span totals as Prometheus text
// exposition, -pprof ADDR serves live profiles. See docs/OBSERVABILITY.md.
package main

import (
	"flag"
	"fmt"
	"os"

	"customfit/internal/bench"
	"customfit/internal/cli"
	"customfit/internal/core"
	"customfit/internal/machine"
)

var tool *cli.Tool

func main() {
	var (
		archStr   = flag.String("arch", "1 1 64 1 8 1", "architecture tuple: \"a m r p2 l2 c\"")
		benchName = flag.String("bench", "", "compile a built-in benchmark (A..H, GF, GEF, DH, DHEF) instead of a file")
		unroll    = flag.Int("unroll", 1, "pixel-loop unroll factor")
		dumpIR    = flag.Bool("ir", false, "print the lowered IR and exit")
		dumpOps   = flag.Bool("dump-ops", false, "mine custom-op candidates from the benchmark's dataflow graph (requires -bench) and exit")
		quiet     = flag.Bool("quiet", false, "print statistics only, not the assembly")
	)
	tool = cli.NewTool("cfp-compile")
	flag.Parse()
	if err := tool.Start(); err != nil {
		fatal(err)
	}
	defer tool.Close()

	if *dumpOps {
		b := bench.ByName(*benchName)
		if b == nil {
			fatal(fmt.Errorf("-dump-ops needs -bench NAME (mining weighs patterns by the reference workload's execution frequencies)"))
		}
		cands, err := core.MineOps([]*bench.Benchmark{b}, 0)
		if err != nil {
			fatal(err)
		}
		if len(cands) == 0 {
			fmt.Printf("; %s: no fusable clusters found\n", b.Name)
			return
		}
		fmt.Printf("; %s: %d custom-op candidates (frequency × latency saved, best first)\n", b.Name, len(cands))
		for _, c := range cands {
			fmt.Printf("%-40s ; count=%.0f saving=%d score=%.0f\n", c.Spec, c.Count, c.Saving, c.Score)
		}
		return
	}

	src, name, err := loadSource(*benchName, flag.Args())
	if err != nil {
		fatal(err)
	}
	k, err := core.ParseKernel(src)
	if err != nil {
		fatal(err)
	}
	if *dumpIR {
		fmt.Print(k.IR())
		return
	}
	arch, err := cli.ParseArch(*archStr)
	if err != nil {
		fatal(err)
	}
	c, err := k.Compile(arch, *unroll)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("; %s on %s, unroll %d\n", name, arch, *unroll)
	fmt.Printf("; bundles=%d ops=%d static IPC=%.2f spilled=%d regs, cost=%.2f derate=%.2f\n",
		c.Prog.BundleCount(), c.Prog.OpCount(), c.Prog.IPC(), c.Spilled,
		machine.DefaultCostModel.Cost(arch), machine.DefaultCycleModel.Derate(arch))
	var issued machine.Charges // a move is what takes a bus
	for _, sb := range c.Prog.Blocks {
		issued.Add(machine.IssueCharges(sb.IR.Instrs))
	}
	fmt.Printf("; occupancy %s, moves %.0f%% of ops\n",
		c.Profile().Occupancy(arch), 100*float64(issued[machine.Bus])/float64(c.Prog.OpCount()))
	if !*quiet {
		fmt.Print(c.Assembly())
	}
}

func loadSource(benchName string, args []string) (src, name string, err error) {
	if benchName != "" {
		b := bench.ByName(benchName)
		if b == nil {
			return "", "", fmt.Errorf("unknown benchmark %q (have %v)", benchName, bench.Names())
		}
		return b.Source, benchName, nil
	}
	if len(args) != 1 {
		return "", "", fmt.Errorf("usage: cfp-compile [-bench NAME | file.ck]")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return "", "", err
	}
	return string(data), args[0], nil
}

func fatal(err error) {
	if tool != nil {
		tool.Fatal(err)
	}
	fmt.Fprintln(os.Stderr, "cfp-compile:", err)
	os.Exit(1)
}
