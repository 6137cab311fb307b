package main

import (
	"math/rand"

	"customfit/internal/bench"
	"customfit/internal/machine"
)

// paperMachines are the twelve architectures the paper's Tables 8-10
// select (the list in the root bench_test.go), preceded by the baseline.
// The compile-heavy workloads explore exactly these: one cold
// (kernel, machine) cell costs between 2 ms and 2 s on today's backend,
// so a small random draw from the 762-machine space cannot repeat within
// a tenth from seed to seed, and some cells of that space do not compile
// at all (kernel A on (16 8 128 1 8 2)), which a workload must not contain.
// The seed therefore orders these machines, it does not choose them.
func paperMachines() []machine.Arch {
	out := []machine.Arch{machine.Baseline}
	for _, t := range [][6]int{
		{4, 2, 256, 1, 4, 4}, {8, 2, 128, 1, 4, 4}, {8, 2, 128, 1, 8, 4},
		{8, 4, 256, 1, 4, 4}, {8, 2, 256, 1, 4, 4}, {16, 4, 128, 1, 4, 8},
		{16, 4, 256, 2, 4, 8}, {16, 4, 512, 1, 4, 8}, {8, 4, 512, 1, 4, 4},
		{16, 4, 512, 1, 8, 8}, {16, 8, 256, 1, 4, 8}, {8, 2, 256, 1, 8, 4},
	} {
		out = append(out, machine.Arch{ALUs: t[0], MULs: t[1], Regs: t[2], L2Ports: t[3], L2Lat: t[4], Clusters: t[5]})
	}
	return out
}

// pinnedOps is the two-op catalog of BenchmarkExploreOpsSubset: the
// paper's MAC and an add-add chain, pinned so the measurement follows
// the explorer and not the miner.
var pinnedOps = []string{
	"mac/3/2:mul $0 $1;add %0 $2",
	"add_add/3/1:add $0 $1;add %0 $2",
}

func benches(names ...string) []*bench.Benchmark {
	out := make([]*bench.Benchmark, len(names))
	for i, n := range names {
		out[i] = bench.ByName(n)
	}
	return out
}

// shuffled returns a seeded permutation of s; s is left alone.
func shuffled[T any](rng *rand.Rand, s []T) []T {
	out := append([]T(nil), s...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// simRequest is one oneshot_sim request: compile this kernel for this
// machine at this unroll factor and simulate it.
type simRequest struct {
	Bench  *bench.Benchmark
	Arch   machine.Arch
	Unroll int
}

// requestUnroll alternates unroll 1 and 2 with i. The baseline runs
// everything at unroll 1: kernel C unrolled does not fit its 64
// registers, and a workload holds no request that fails.
func requestUnroll(a machine.Arch, i int) int {
	if a == machine.Baseline {
		return 1
	}
	return 1 + i%2
}

// requestStream is one pass of oneshot_sim: every (kernel, machine)
// pair once, in seeded order. The unroll factor alternates over the
// fixed grid, not over the order, so every seed simulates the same set
// of programs and sim_cycles_geomean repeats exactly.
func requestStream(rng *rand.Rand, kernels []*bench.Benchmark, archs []machine.Arch) []simRequest {
	var reqs []simRequest
	for ki, k := range kernels {
		for ai, a := range archs {
			reqs = append(reqs, simRequest{Bench: k, Arch: a, Unroll: requestUnroll(a, ki+ai)})
		}
	}
	return shuffled(rng, reqs)
}

// sampleCells draws n distinct (kernel, machine) cells for the layer
// replay, in seeded order.
func sampleCells(rng *rand.Rand, kernels []*bench.Benchmark, archs []machine.Arch, n int) []cell {
	var cells []cell
	for _, k := range kernels {
		for _, a := range archs {
			cells = append(cells, cell{k, a})
		}
	}
	cells = shuffled(rng, cells)
	if len(cells) > n {
		cells = cells[:n]
	}
	return cells
}

type cell struct {
	Bench *bench.Benchmark
	Arch  machine.Arch
}
