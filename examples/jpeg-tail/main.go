// The tail of a JPEG decoder — dequantize+IDCT (benchmark C), 1-D
// bilinear upsampling (G), YCbCr→RGB conversion (E) — as one
// application with several kernels sharing a single custom-fit machine.
// This is the paper's motivating scenario: "people build chips to do
// specifically one subtask of an application ... additionally, we now
// have media processors, which are specialized for an application
// area."
//
//	go run ./examples/jpeg-tail
package main

import (
	"context"
	"fmt"
	"log"

	"customfit/internal/bench"
	"customfit/internal/core"
	"customfit/internal/machine"
)

func main() {
	ctx := context.Background()
	kernels := []*bench.Benchmark{
		bench.ByName("C"), // dequantize + IDCT
		bench.ByName("G"), // upsample
		bench.ByName("E"), // YCbCr → RGB
	}
	fmt.Println("JPEG decoder tail: IDCT (C) → upsample (G) → color convert (E)")

	// A quick sampled fit (full space in cmd/cfp-explore).
	space := machine.Grid(nil, 12, nil)
	budget := 8.0
	fit, err := core.CustomFitCtx(ctx, core.FitOptions{
		Benchmarks: kernels, CostCap: budget, Archs: space,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfit for the whole tail under cost %.1f: %s (cost %.1f)\n",
		budget, fit.Best, fit.Cost)
	for _, k := range kernels {
		fmt.Printf("  %-2s speedup %.2fx\n", k.Name, fit.Speedups[k.Name])
	}

	// Compare against specializing for each stage alone: the machine
	// that maximizes one stage is rarely the one you should build.
	fmt.Println("\nspecializing for a single stage instead:")
	for _, target := range kernels {
		only, err := core.CustomFitCtx(ctx, core.FitOptions{
			Benchmarks: []*bench.Benchmark{target}, CostCap: budget, Archs: space,
		})
		if err != nil {
			log.Fatal(err)
		}
		cross, err := core.CustomFitCtx(ctx, core.FitOptions{
			Benchmarks: kernels, CostCap: budget, Archs: []machine.Arch{only.Best},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  fit %-2s -> %s (cost %.1f): C %.2fx  G %.2fx  E %.2fx\n",
			target.Name, only.Best, only.Cost,
			cross.Speedups["C"], cross.Speedups["G"], cross.Speedups["E"])
	}

	// Run the whole tail on the fitted machine, cycle-accurately, and
	// verify each stage against its golden model.
	fmt.Println("\ncycle-accurate run of each stage on the fitted machine:")
	for _, b := range kernels {
		k, err := core.ParseKernel(b.Source)
		if err != nil {
			log.Fatal(err)
		}
		c, err := k.Compile(fit.Best, 2)
		if err != nil {
			log.Fatal(err)
		}
		cse := b.NewCase(192, 11)
		run := cse.Clone()
		st, err := c.Run(run.Args, run.Mem)
		if err != nil {
			log.Fatal(err)
		}
		want := cse.Golden()
		for _, name := range cse.Outputs {
			for i, w := range want[name] {
				if run.Mem[name][i] != w {
					log.Fatalf("%s: %s[%d] mismatch", b.Name, name, i)
				}
			}
		}
		fmt.Printf("  %-2s %7d cycles  IPC %.2f  verified\n", b.Name, st.Cycles, st.IPC)
	}
}
