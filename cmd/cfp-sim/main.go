// cfp-sim compiles a built-in benchmark for one architecture, runs it
// on the cycle-accurate VLIW simulator against a generated workload,
// verifies the output against the benchmark's golden model, and reports
// cycles, IPC and memory traffic.
//
// Usage:
//
//	cfp-sim -bench A -arch "8 4 256 1 4 2" -width 256 -unroll 2
//
// Telemetry: -trace FILE writes a Chrome trace of compile+simulate
// spans, -metrics FILE writes the counters and span totals as
// Prometheus text exposition, -pprof ADDR serves live profiles. See docs/OBSERVABILITY.md.
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
		benchName = flag.String("bench", "A", "benchmark name (A..H, GF, GEF, DH, DHEF), or \"all\"")
		archStr   = flag.String("arch", "1 1 64 1 8 1", "architecture tuple: \"a m r p2 l2 c\"")
		unroll    = flag.Int("unroll", 1, "pixel-loop unroll factor")
		width     = flag.Int("width", 256, "workload width in pixels")
		seed      = flag.Int64("seed", 1, "workload seed")
	)
	tool = cli.NewTool("cfp-sim")
	flag.Parse()
	if err := tool.Start(); err != nil {
		fatal(err)
	}
	defer tool.Close()

	arch, err := cli.ParseArch(*archStr)
	if err != nil {
		fatal(err)
	}
	if *benchName == "all" {
		for _, b := range bench.All() {
			runOne(b, arch, *unroll, *width, *seed)
		}
		return
	}
	b := bench.ByName(*benchName)
	if b == nil {
		fatal(fmt.Errorf("unknown benchmark %q (have %v)", *benchName, bench.Names()))
	}
	runOne(b, arch, *unroll, *width, *seed)
}

// runOne compiles, simulates and verifies one benchmark.
func runOne(b *bench.Benchmark, arch machine.Arch, unroll, width int, seed int64) {

	k, err := core.ParseKernel(b.Source)
	if err != nil {
		fatal(err)
	}
	c, err := k.Compile(arch, unroll)
	if err != nil {
		fatal(err)
	}

	cse := b.NewCase(width, seed)
	run := cse.Clone()
	st, err := c.Run(run.Args, run.Mem)
	if err != nil {
		fatal(err)
	}

	// Verify against the golden model.
	want := cse.Golden()
	errors := 0
	for _, name := range cse.Outputs {
		w, g := want[name], run.Mem[name]
		for i := range w {
			if w[i] != g[i] {
				errors++
			}
		}
	}

	fmt.Printf("benchmark %s on %s (unroll %d, width %d)\n", b.Name, arch, unroll, width)
	fmt.Printf("  cycles        %d\n", st.Cycles)
	fmt.Printf("  time          %.0f (cycle derate %.2f)\n", st.Time, machine.DefaultCycleModel.Derate(arch))
	fmt.Printf("  operations    %d  (IPC %.2f)\n", st.Ops, st.IPC)
	fmt.Printf("  mem accesses  %d\n", st.MemAccesses)
	cu := ""
	if !arch.Ops.Empty() {
		cu = fmt.Sprintf("  CU %.0f%%", 100*st.CUOcc)
	}
	fmt.Printf("  occupancy     ALU %.0f%%  MUL %.0f%%  L1 %.0f%%  L2 %.0f%%%s  (bound by %s, %d stall cycles)\n",
		100*st.ALUOcc, 100*st.MULOcc, 100*st.L1Occ, 100*st.L2Occ, cu, st.Bound, st.StallCycles)
	fmt.Printf("  spilled regs  %d\n", c.Spilled)
	fmt.Printf("  arch cost     %.2f\n", machine.DefaultCostModel.Cost(arch))
	if errors == 0 {
		fmt.Printf("  output        VERIFIED against golden model\n")
	} else {
		fmt.Printf("  output        %d MISMATCHES vs golden model\n", errors)
		os.Exit(1)
	}
}

func fatal(err error) {
	if tool != nil {
		tool.Fatal(err)
	}
	fmt.Fprintln(os.Stderr, "cfp-sim:", err)
	os.Exit(1)
}
