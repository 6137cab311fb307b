package ddg

import (
	"customfit/internal/ir"
	"customfit/internal/machine"
)

// The skeleton construction Builder replaced, kept verbatim as the
// oracle of TestBuilderMatchesReference and FuzzSkeletonBuilder (until
// the generated-kernel differential tests of ROADMAP.md can take over):
// per-node successor slices grown by append, a def/use table and a
// use list per register allocated per block, and every memory
// operation compared with every earlier conflicting-kind operation on
// its array.

// IndexBound lets the external tests aim at the index's edge.
const IndexBound = indexBound

// RefSkeleton is the Skeleton layout that construction filled.
type RefSkeleton struct {
	Succs   [][]SkelEdge
	NPreds  []int32
	Heights []int32
	HasTerm bool
}

// ReferenceSkeleton is BuildSkeleton as it was before Builder.
func ReferenceSkeleton(b *ir.Block, arch machine.Arch) *RefSkeleton {
	ins := b.Instrs
	n := len(ins)
	sk := &RefSkeleton{
		Succs:   make([][]SkelEdge, n),
		NPreds:  make([]int32, n),
		Heights: make([]int32, n),
	}
	if n == 0 {
		return sk
	}
	addEdge := func(from, to, d int) {
		// Keep only the strongest constraint between a pair.
		succs := sk.Succs[from]
		for i := range succs {
			if int(succs[i].To) == to {
				if d > int(succs[i].MinDelta) {
					succs[i].MinDelta = int32(d)
				}
				return
			}
		}
		sk.Succs[from] = append(succs, SkelEdge{To: int32(to), MinDelta: int32(d)})
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
				addEdge(def-1, i, machine.Latency(ins[def-1], arch)) // true
			}
			lastUses[a.Reg] = append(lastUses[a.Reg], i)
		}
		if in.Op.HasDest() {
			r := in.Dest
			if def := lastDef[r]; def != 0 {
				// Output: later def must commit strictly after earlier.
				d := machine.Latency(ins[def-1], arch) - machine.Latency(in, arch) + 1
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
				d = machine.Latency(in, arch) - 1
			}
			if occ := machine.Occupancy(in, arch); occ-1 > d {
				d = occ - 1
			}
			addEdge(i, n-1, d)
		}
	}

	// Latency-weighted critical-path heights by a reverse topological
	// sweep (program order is a valid topological order).
	for i := n - 1; i >= 0; i-- {
		in := ins[i]
		h := int32(machine.Latency(in, arch))
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
