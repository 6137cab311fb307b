package sched

import (
	"math/rand"
	"slices"
	"testing"

	"customfit/internal/cc"
	"customfit/internal/cc/cctest"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/opt"
	"customfit/internal/sim"
)

func randomArch(r *rand.Rand, space []machine.Arch) machine.Arch {
	return space[r.Intn(len(space))]
}

// TestRandomKernelsAcrossRandomMachines is random-kernel torture:
// generate kernels (cctest.Kernel), compile them for random
// architectures at random unroll factors, and require that the
// cycle-accurate simulation of the scheduled program produces exactly
// the memory image of the plain IR interpreter. This closes the loop
// over every backend component at once: partitioning, scheduling,
// pressure throttling, spilling and the simulator.
func TestRandomKernelsAcrossRandomMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles dozens of random kernels")
	}
	r := rand.New(rand.NewSource(424242))
	space := machine.FullSpace()
	trials, spilled := 150, 0
	var starved []machine.Arch
	for _, a := range space {
		if a.RegsPC() <= 32 {
			starved = append(starved, a)
		}
	}
	for trial := 0; trial < trials; trial++ {
		src := cctest.Kernel(r)
		fn, err := cc.CompileKernel(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		u := []int{1, 2, 4}[r.Intn(3)]
		prepared, err := opt.Prepare(fn, u)
		if err != nil {
			t.Fatalf("trial %d: prepare u=%d: %v", trial, u, err)
		}
		arch := randomArch(r, space)
		res, err := Compile(prepared, arch)
		if err != nil {
			// Pressure non-convergence is a legal outcome at high unroll
			// on starved machines; anything else is a bug.
			t.Fatalf("trial %d: compile on %s u=%d: %v\n%s", trial, arch, u, err, src)
		}
		if err := Validate(res.Prog); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		n := int32(5 + r.Intn(20))
		in := make([]int32, 2*n+8)
		for i := range in {
			in[i] = int32(r.Intn(512) - 256)
		}
		ref := make([]int32, 2*n+1)
		got := make([]int32, 2*n+1)
		if _, err := ir.Interp(fn, ir.NewEnv(n).Bind("in", in).Bind("out", ref)); err != nil {
			t.Fatalf("trial %d: interp: %v\n%s", trial, err, src)
		}
		if _, err := sim.Run(res.Prog, ir.NewEnv(n).Bind("in", in).Bind("out", got)); err != nil {
			t.Fatalf("trial %d: sim on %s: %v\n%s", trial, arch, err, src)
		}
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("trial %d on %s u=%d: out[%d] = %d, want %d\n%s",
					trial, arch, u, i, got[i], ref[i], src)
			}
		}
		// And once more through the physical register assignment.
		gotPhys := make([]int32, 2*n+1)
		if _, err := sim.RunPhysical(res.Prog, ir.NewEnv(n).Bind("in", in).Bind("out", gotPhys)); err != nil {
			t.Fatalf("trial %d: physical sim on %s: %v\n%s", trial, arch, err, src)
		}
		for i := range ref {
			if ref[i] != gotPhys[i] {
				t.Fatalf("trial %d on %s u=%d (physical): out[%d] = %d, want %d\n%s",
					trial, arch, u, i, gotPhys[i], ref[i], src)
			}
		}
		// Every floor the spill loop takes is admissible (spillFloor):
		// under the prepared kernel's visits on this input, a compile
		// handed the incumbent one cycle above the program's runs to the
		// end and returns the same program. Few of the drawn machines
		// spill, so the kernel is held to it on a starved one too, picked
		// without a draw.
		env := ir.NewEnv(n).Bind("in", slices.Clone(in)).Bind("out", make([]int32, 2*n+1))
		env.Visits = map[string]int64{}
		if _, err := ir.Interp(prepared, env); err != nil {
			t.Fatalf("trial %d: interp prepared: %v\n%s", trial, err, src)
		}
		for _, a := range []machine.Arch{arch, starved[trial%len(starved)]} {
			res := res
			if a != arch {
				if res, err = Compile(prepared, a); err != nil {
					continue // no program to bound
				}
			}
			if res.Iterations == 1 {
				continue
			}
			spilled++
			c := res.Prog.StaticCycles(env.Visits)
			bounded, err := compile(nil, "sched", prepared, nil, a, nil, false, Incumbent{c + 1, env.Visits})
			if err != nil || bounded.Prog.StaticCycles(env.Visits) != c || bounded.Iterations != res.Iterations {
				t.Fatalf("trial %d on %s u=%d: under the incumbent %d: %v, %+v; unbounded %d cycles, %d rounds\n%s",
					trial, a, u, c+1, err, bounded, c, res.Iterations, src)
			}
		}
	}
	t.Logf("%d compiles with spill rounds held to their floors", spilled)
}
