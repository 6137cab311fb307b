package sched

import (
	"fmt"
	"sync"

	"customfit/internal/machine"
)

// BackendVersion is bumped whenever the backend's code generation
// changes in a way that can alter cycle counts — scheduler heuristics,
// spill policy, partitioning, allocation. It feeds the compiler
// fingerprint that content-addresses the persistent evaluation cache
// (internal/evcache): bumping it invalidates every cached sweep.
const BackendVersion = 1

// Fingerprint identifies the backend's code-generation behavior for
// content-addressed caching: the manually-bumped BackendVersion plus
// the fixed machine-template constants the schedule depends on, so a
// latency-model change invalidates cached sweeps even without a
// version bump.
func Fingerprint() string { return fingerprint() }

// Of constants only, and asked for by every kernel-class hash: spelled
// once.
var fingerprint = sync.OnceValue(func() string {
	return fmt.Sprintf("backend-v%d;lat(alu=%d,mul=%d,l1=%d/%d,mv=%d);buses=%d;spill=%d;reserve=%d;ops-v1",
		BackendVersion, machine.LatALU, machine.LatMUL, machine.LatL1, machine.L1Occupancy,
		machine.LatMove, machine.MaxBuses, MaxSpillIterations, pressureReserve)
})

// LowerBound computes, without scheduling, an admissible per-block
// lower bound (in cycles) on the backend's schedule length for prep's
// kernel on arch — in the spirit of the resource/recurrence bounds
// used by optimal software pipelining. It counts the kernel's pristine
// blocks, so it returns nil for a machine whose instruction set the
// backend rewrites first (rewritesISA: min/max fusion and custom ops put
// one operation where there were several, which shortens both the
// counts and the critical path below these — H on (1 1 64 1 2 1) with
// min/max: bound 4569, real 3005). Per block it takes the max of:
//
//   - the latency-weighted critical-path height from the cached
//     ddg.Skeleton (recurrence bound; only when the block ends in a
//     terminator, whose drain edges make the height an issue-cycle
//     bound);
//   - for every resource, ⌈demand · hold / machine-wide capacity⌉
//     (machine.Capacity): ALU and multiplier slots, the single L1 port,
//     the p2 non-pipelined L2 ports each held for the full l2 latency,
//     the one branch unit. A port counts only its issue cycle in a
//     terminator-less block, where occupancy may drain past the block
//     end.
//
// Every component only ignores constraints the scheduler enforces
// (pressure throttling, per-cluster memory paths, copy insertion,
// spill code), all of which can only lengthen the real schedule, so
// bound ≤ actual holds for every architecture and spill outcome. The
// search layer uses it to prove candidates cannot beat an incumbent
// without paying for a compile.
func LowerBound(prep *Prepared, arch machine.Arch) []int {
	if rewritesISA(arch) {
		return nil
	}
	// The single-cluster class's blocks are the pristine ones, the
	// kernel's own: its skeletons and issue charges are theirs.
	pristine := prep.class(machine.Arch{Clusters: 1}, nil)
	skels := pristine.skels.get(pristine.g, arch, nil)
	k := arch.Capacity()
	out := make([]int, len(skels))
	for i := range skels {
		sk := &skels[i]
		lb := 0
		if sk.HasTerm {
			lb = sk.CriticalPath()
		} else if len(sk.Heights) > 0 {
			lb = 1
		}
		for r, n := range pristine.blocks[i].info {
			if sk.HasTerm {
				n *= k.Hold[r]
			}
			lb = max(lb, ceil(n, k.Machine[r]))
		}
		out[i] = lb
	}
	return out
}

func ceil(a, b int) int {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
