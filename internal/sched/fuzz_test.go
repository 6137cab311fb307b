package sched

import (
	"math/rand"
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
	trials := 150
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
	}
}
