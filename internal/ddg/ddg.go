// Package ddg builds data-dependence DAGs over basic blocks for the
// clustered-VLIW list scheduler. Edges carry minimum issue-distance
// weights derived from operation latencies:
//
//   - true dependences (def→use) weigh the producer's latency;
//   - anti dependences (use→def) weigh 0: a VLIW reads registers at
//     issue and commits writes after the latency, so a redefinition may
//     issue in the same cycle as the last reader;
//   - output dependences order commits;
//   - memory dependences use a base+offset disambiguator: accesses to
//     different arrays, or to the same array at provably different
//     offsets from the same base register, are independent — everything
//     else is ordered conservatively.
//
// After the optimizer's regional renaming, anti and output edges are
// rare inside hot blocks; what remains are the kernel's genuine
// recurrences (Floyd-Steinberg's error chain), which is exactly what
// should limit ILP.
package ddg

import (
	"customfit/internal/ir"
	"customfit/internal/machine"
)

// Node is one schedulable operation.
type Node struct {
	Index int // position in block
	Instr *ir.Instr
	Succs []Edge
	Preds []Edge

	// Height is the critical-path distance to the end of the block
	// (latency-weighted), the scheduler's priority.
	Height int
}

// Edge is a dependence with a minimum issue-cycle distance.
type Edge struct {
	To       *Node
	MinDelta int // successor must issue >= this many cycles after predecessor
}

// Graph is the dependence DAG of one basic block. The terminator, if
// present, is the last node and has incoming edges enforcing that every
// write and every memory-port occupancy completes before control
// leaves the block.
type Graph struct {
	Nodes []*Node
	Term  *Node // terminator node, or nil
}

// Build constructs the dependence graph for a block under the given
// architecture's latencies. It is the pointer-form view of a skeleton;
// the scheduler and the validator consume skeletons directly, tests and
// the ablations use this materialized form.
func Build(b *ir.Block, arch machine.Arch) *Graph {
	var bd Builder
	return bd.Build(b, arch).Materialize(b)
}

// memDependence classifies the ordering constraint between two memory
// operations, returning (minDelta, dependent).
func memDependence(a, b *ir.Instr) (int, bool) {
	if a.Op == ir.OpLoad && b.Op == ir.OpLoad {
		return 0, false
	}
	if a.Mem != b.Mem {
		return 0, false
	}
	if disjoint(a, b) {
		return 0, false
	}
	if a.Op == ir.OpStore && b.Op == ir.OpLoad {
		return 1, true // store visible to loads issued in later cycles
	}
	if a.Op == ir.OpStore && b.Op == ir.OpStore {
		return 1, true
	}
	return 0, true // load then store: same-cycle is safe (read-old)
}

// disjoint reports whether two accesses to the same array provably
// touch different elements: both constant addresses that differ, or the
// same base register with different offsets.
func disjoint(a, b *ir.Instr) bool {
	ai, bi := a.Args[0], b.Args[0]
	if ai.IsImm() && bi.IsImm() {
		return ai.Imm+a.Off != bi.Imm+b.Off
	}
	if ai.IsReg() && bi.IsReg() && ai.Reg == bi.Reg {
		return a.Off != b.Off
	}
	return false
}

// CriticalPath returns the graph's critical path length in cycles — a
// lower bound on the block's schedule length regardless of resources.
func (g *Graph) CriticalPath() int {
	cp := 0
	for _, nd := range g.Nodes {
		if nd.Height > cp {
			cp = nd.Height
		}
	}
	return cp
}
