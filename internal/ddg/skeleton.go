package ddg

import (
	"customfit/internal/ir"
	"customfit/internal/machine"
)

// SkelEdge is a dependence edge in index form: the successor's position
// in the block and the minimum issue-cycle distance.
type SkelEdge struct {
	To       int
	MinDelta int
}

// Skeleton is the dependence structure of one basic block with no
// ir.Instr pointers: successors, predecessor counts and critical-path
// heights are all keyed by instruction index. Because the only
// architecture parameter the dependence rules read is the Level-2
// latency (see Latency and Occupancy), a skeleton built once per
// (block, L2Lat) class is valid for every architecture in that class
// and can be shared across concurrent compiles — it is immutable after
// construction.
type Skeleton struct {
	// Succs[i] lists i's forward dependence edges.
	Succs [][]SkelEdge
	// NPreds[i] is the number of incoming dependence edges of i.
	NPreds []int
	// Heights[i] is the latency-weighted critical-path distance from i
	// to the end of the block (the scheduler's priority).
	Heights []int
	// HasTerm records whether the final instruction is the block
	// terminator (carrying the drain edges).
	HasTerm bool
}

// BuildSkeleton constructs the index-form dependence graph for a block
// under the given architecture's latency class. The edge set and
// heights are identical to Build's; Build is implemented on top of it.
func BuildSkeleton(b *ir.Block, arch machine.Arch) *Skeleton {
	ins := b.Instrs
	n := len(ins)
	sk := &Skeleton{
		Succs:   make([][]SkelEdge, n),
		NPreds:  make([]int, n),
		Heights: make([]int, n),
	}
	if n == 0 {
		return sk
	}
	addEdge := func(from, to, d int) {
		// Keep only the strongest constraint between a pair.
		succs := sk.Succs[from]
		for i := range succs {
			if succs[i].To == to {
				if d > succs[i].MinDelta {
					succs[i].MinDelta = d
				}
				return
			}
		}
		sk.Succs[from] = append(succs, SkelEdge{To: to, MinDelta: d})
		sk.NPreds[to]++
	}

	// Dense def/use tables sized by the largest register the block
	// touches (maps here dominate graph-construction cost).
	maxReg := -1
	for _, in := range ins {
		for _, a := range in.Args {
			if a.IsReg() && int(a.Reg) > maxReg {
				maxReg = int(a.Reg)
			}
		}
		if in.Op.HasDest() && int(in.Dest) > maxReg {
			maxReg = int(in.Dest)
		}
	}
	lastDef := make([]int, maxReg+1) // node index + 1; 0 = no def seen
	lastUses := make([][]int, maxReg+1)
	// Memory operations seen so far, per array and kind: only accesses
	// to the same array can depend on each other, and two loads never
	// do, so a load is compared against its array's stores alone. A
	// kernel names a handful of arrays; a linear probe finds the list.
	type arrayOps struct {
		mem           *ir.MemRef
		loads, stores []int
	}
	var arrays []arrayOps

	for i, in := range ins {
		// Register dependences.
		for _, a := range in.Args {
			if !a.IsReg() {
				continue
			}
			if def := lastDef[a.Reg]; def != 0 {
				addEdge(def-1, i, Latency(ins[def-1], arch)) // true
			}
			lastUses[a.Reg] = append(lastUses[a.Reg], i)
		}
		if in.Op.HasDest() {
			r := in.Dest
			if def := lastDef[r]; def != 0 {
				// Output: later def must commit strictly after earlier.
				d := Latency(ins[def-1], arch) - Latency(in, arch) + 1
				if d < 0 {
					d = 0
				}
				addEdge(def-1, i, d)
			}
			for _, u := range lastUses[r] {
				if u != i {
					addEdge(u, i, 0) // anti
				}
			}
			lastDef[r] = i + 1
			lastUses[r] = nil
		}
		// Memory dependences.
		if in.Op.IsMem() {
			var ao *arrayOps
			for k := range arrays {
				if arrays[k].mem == in.Mem {
					ao = &arrays[k]
					break
				}
			}
			if ao == nil {
				arrays = append(arrays, arrayOps{mem: in.Mem})
				ao = &arrays[len(arrays)-1]
			}
			// The edges out of one earlier operation land in its own
			// successor list, so the order the earlier ones are visited
			// in does not show in the graph.
			earlier := func(ms []int) {
				for _, m := range ms {
					if d, dep := memDependence(ins[m], in); dep {
						addEdge(m, i, d)
					}
				}
			}
			earlier(ao.stores)
			if in.Op == ir.OpStore {
				earlier(ao.loads)
				ao.stores = append(ao.stores, i)
			} else {
				ao.loads = append(ao.loads, i)
			}
		}
	}

	// Terminator constraints: every result committed and every memory
	// port drained by the end of the block, so no state is in flight
	// across block boundaries.
	if b.Terminator() != nil {
		sk.HasTerm = true
		for i, in := range ins[:n-1] {
			d := 0
			if in.Op.HasDest() {
				d = Latency(in, arch) - 1
			}
			if occ := Occupancy(in, arch); occ-1 > d {
				d = occ - 1
			}
			addEdge(i, n-1, d)
		}
	}

	// Latency-weighted critical-path heights by a reverse topological
	// sweep (program order is a valid topological order).
	for i := n - 1; i >= 0; i-- {
		in := ins[i]
		h := Latency(in, arch)
		if !in.Op.HasDest() {
			h = 1
		}
		for _, e := range sk.Succs[i] {
			if v := e.MinDelta + sk.Heights[e.To]; v > h {
				h = v
			}
		}
		sk.Heights[i] = h
	}
	return sk
}

// Materialize expands the skeleton into a pointer-form Graph over the
// given block's instructions. The block must be structurally identical
// to the one the skeleton was built from (same instruction sequence);
// the prepared-kernel cache guarantees this by only reusing skeletons
// for unmodified clones of the source function.
func (sk *Skeleton) Materialize(b *ir.Block) *Graph {
	g := &Graph{Nodes: make([]*Node, len(b.Instrs))}
	for i, in := range b.Instrs {
		g.Nodes[i] = &Node{Index: i, Instr: in, Height: sk.Heights[i]}
	}
	for i, succs := range sk.Succs {
		from := g.Nodes[i]
		for _, e := range succs {
			to := g.Nodes[e.To]
			from.Succs = append(from.Succs, Edge{To: to, MinDelta: e.MinDelta})
			to.Preds = append(to.Preds, Edge{To: from, MinDelta: e.MinDelta})
		}
	}
	if sk.HasTerm && len(g.Nodes) > 0 {
		g.Term = g.Nodes[len(g.Nodes)-1]
	}
	return g
}

// CriticalPath returns the skeleton's critical path length in cycles.
func (sk *Skeleton) CriticalPath() int {
	cp := 0
	for _, h := range sk.Heights {
		if h > cp {
			cp = h
		}
	}
	return cp
}
