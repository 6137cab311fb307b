package ddg

import (
	"customfit/internal/ir"
	"customfit/internal/machine"
)

// SkelEdge is a dependence edge in index form: the successor's position
// in the block and the minimum issue-cycle distance. Both are 32-bit, as
// every index and delta of a block is (the builder works in int32): an
// edge is 8 bytes.
type SkelEdge struct {
	To       int32
	MinDelta int32
}

// Skeleton is the dependence structure of one basic block with no
// ir.Instr pointers: successors, predecessor counts and critical-path
// heights are all keyed by instruction index. Because the only
// architecture parameter the dependence rules read is the Level-2
// latency (see Latency and Occupancy), a skeleton built once per
// (block, L2Lat) class is valid for every architecture in that class.
//
// A skeleton is four flat arrays and is never modified once built. One
// returned by BuildSkeleton or Builder.BuildSet owns its arrays (with
// the rest of its set) and can be cached and shared across concurrent
// compiles; one returned by Builder.Build is a view of the builder's
// arrays, gone with the builder's next Build.
type Skeleton struct {
	// edges holds every forward dependence edge, grouped by source
	// instruction in block order; off[i] and off[i+1] bound i's group.
	// Within a group edges stand in ascending To.
	edges []SkelEdge
	off   []int32
	// NPreds[i] is the number of incoming dependence edges of i.
	NPreds []int32
	// Heights[i] is the latency-weighted critical-path distance from i
	// to the end of the block (the scheduler's priority).
	Heights []int32
	// HasTerm records whether the final instruction is the block
	// terminator (carrying the drain edges).
	HasTerm bool
}

// Succs returns i's forward dependence edges: a view, read only.
func (sk *Skeleton) Succs(i int) []SkelEdge {
	return sk.edges[sk.off[i]:sk.off[i+1]]
}

// BuildSkeleton constructs the index-form dependence graph for a block
// under the given architecture's latency class, in memory of its own.
// The edge set and heights are identical to Build's, which materializes
// the same construction.
func BuildSkeleton(b *ir.Block, arch machine.Arch) *Skeleton {
	var bd Builder
	return &bd.BuildSet([]*ir.Block{b}, arch)[0]
}

// BuildSet builds the skeletons of blocks under arch's latency class
// into memory of their own, packed: one array holds every block's
// edges, one every block's per-instruction tables, and one the
// skeletons, so a set is three objects however many blocks it has. The
// builder gathers the blocks' tables in arrays it keeps; the set copies
// them out at their exact size and cuts each skeleton's tables from the
// copies, each capped at its own length so that no append through one
// reaches the next.
func (bd *Builder) BuildSet(blocks []*ir.Block, arch machine.Arch) []Skeleton {
	set := make([]Skeleton, len(blocks))
	edges, ints := bd.setEdges[:0], bd.setInts[:0]
	for i, b := range blocks {
		sk := bd.Build(b, arch)
		edges = append(edges, sk.edges...)
		ints = append(append(append(ints, sk.off...), sk.NPreds...), sk.Heights...)
		set[i].HasTerm = sk.HasTerm
	}
	bd.setEdges, bd.setInts = edges, ints
	edges = append(make([]SkelEdge, 0, len(edges)), edges...)
	ints = append(make([]int32, 0, len(ints)), ints...)
	cut := func(n int) []int32 {
		t := ints[:n:n]
		ints = ints[n:]
		return t
	}
	for i, b := range blocks {
		sk := &set[i]
		n := len(b.Instrs)
		sk.off, sk.NPreds, sk.Heights = cut(n+1), cut(n), cut(n)
		k := sk.off[n]
		sk.edges, edges = edges[:k:k], edges[k:]
	}
	return set
}

// indexBound bounds the constant-address index (see Builder): constant
// addresses in [0, indexBound) are indexed, which covers every spill
// slot and constant-table entry a kernel has; any other access is
// compared the exhaustive way.
const indexBound = 1 << 12

// Builder builds skeletons into arrays it keeps, so a compile that
// builds one skeleton per block per spill round allocates nothing once
// the arrays have grown to its largest block. The zero value is ready
// to use; a Builder is not safe for concurrent use.
//
// Every dependence rule emits edges into the instruction being visited,
// so the edges out of one instruction are found in ascending To and a
// repeated (from, to) pair can only repeat the newest edge out of from:
// edges go into one pool in the order found, "keep the strongest
// constraint between a pair" is one comparison, and a counting sort by
// source packs the pool into the skeleton. Which earlier instruction a
// rule visits first therefore never shows in the result.
//
// Memory operations are kept per array and kind, as only accesses to
// one array can depend on each other and two loads never do. On top of
// those lists sits the constant-address index: accesses whose address
// is a constant in [0, indexBound) — Imm+Off, so every spill slot — are
// also chained per address, and such an access is compared with its own
// address's chain and with the accesses outside the index only.
// That is exact, because disjoint proves two different constant
// addresses independent; it turns the all-pairs comparison of a spill
// round's spill$ traffic into one probe per access.
type Builder struct {
	sk Skeleton // the skeleton Build returns; its arrays are reused

	pool []poolEdge
	last []int32 // per instruction: 1 + its newest edge in pool, then the packing cursor

	lastDef []int32 // per register: 1 + its latest definition
	useHead []int32 // per register: 1 + the newest entry of uses reading it since
	uses    []useLink

	arrays   []arrayOps
	sameAddr []int32 // per indexed access: 1 + the previous one of its array, kind and address

	// BuildSet's gathering arrays: the blocks' edges and their
	// per-instruction tables, one block after another.
	setEdges []SkelEdge
	setInts  []int32
}

type poolEdge struct{ from, to, delta int32 }

// useLink is one read of a register; next chains the earlier reads
// since the register's last definition (1 + index into uses).
type useLink struct{ node, next int32 }

// Memory access kinds, indexing arrayOps's tables.
const (
	kindLoad = iota
	kindStore
)

// arrayOps is the memory operations of one array seen so far, by kind.
type arrayOps struct {
	mem *ir.MemRef
	all [2][]int32 // every access
	off [2][]int32 // the accesses outside the constant-address index
	at  [2][]int32 // per indexed address: 1 + the newest access there
}

// sized returns s resized to n zeroed entries, reusing its array.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Build constructs b's skeleton under arch's latency class. The result
// is valid until the next Build.
func (bd *Builder) Build(b *ir.Block, arch machine.Arch) *Skeleton {
	ins := b.Instrs
	n := len(ins)
	sk := &bd.sk
	sk.off = sized(sk.off, n+1)
	sk.NPreds = sized(sk.NPreds, n)
	sk.Heights = sized(sk.Heights, n)
	sk.edges = sk.edges[:0]
	sk.HasTerm = false
	if n == 0 {
		return sk
	}
	bd.pool = bd.pool[:0]
	bd.last = sized(bd.last, n)

	// Dense def/use tables sized by the largest register the block
	// touches.
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
	bd.lastDef = sized(bd.lastDef, maxReg+1)
	bd.useHead = sized(bd.useHead, maxReg+1)
	bd.uses = bd.uses[:0]
	bd.arrays = bd.arrays[:0]
	bd.sameAddr = sized(bd.sameAddr, n)

	for i, in := range ins {
		// Register dependences.
		for _, a := range in.Args {
			if !a.IsReg() {
				continue
			}
			if def := bd.lastDef[a.Reg]; def != 0 {
				bd.addEdge(int(def-1), i, machine.Latency(ins[def-1], arch)) // true
			}
			bd.uses = append(bd.uses, useLink{int32(i), bd.useHead[a.Reg]})
			bd.useHead[a.Reg] = int32(len(bd.uses))
		}
		if in.Op.HasDest() {
			r := in.Dest
			if def := bd.lastDef[r]; def != 0 {
				// Output: later def must commit strictly after earlier.
				d := machine.Latency(ins[def-1], arch) - machine.Latency(in, arch) + 1
				if d < 0 {
					d = 0
				}
				bd.addEdge(int(def-1), i, d)
			}
			for u := bd.useHead[r]; u != 0; u = bd.uses[u-1].next {
				if node := int(bd.uses[u-1].node); node != i {
					bd.addEdge(node, i, 0) // anti
				}
			}
			bd.lastDef[r] = int32(i + 1)
			bd.useHead[r] = 0
		}
		// Memory dependences.
		if in.Op.IsMem() {
			bd.memEdges(ins, i)
		}
	}

	// Terminator constraints: every result committed and every memory
	// port drained by the end of the block, so no state is in flight
	// across block boundaries.
	if b.Terminator() != nil {
		sk.HasTerm = true
		for i, in := range ins[:n-1] {
			d := machine.Latency(in, arch) - 1 // 0 without a result
			if occ := machine.Occupancy(in, arch); occ-1 > d {
				d = occ - 1
			}
			bd.addEdge(i, n-1, d)
		}
	}

	// Pack the pool by source. addEdge left each instruction's edge
	// count in off[i+1]; the scatter is stable, so a group keeps the
	// order its edges were found in.
	for i := 0; i < n; i++ {
		bd.last[i] = sk.off[i]
		sk.off[i+1] += sk.off[i]
	}
	if cap(sk.edges) < len(bd.pool) {
		sk.edges = make([]SkelEdge, len(bd.pool))
	}
	sk.edges = sk.edges[:len(bd.pool)]
	for _, e := range bd.pool {
		sk.edges[bd.last[e.from]] = SkelEdge{To: e.to, MinDelta: e.delta}
		bd.last[e.from]++
	}

	// Latency-weighted critical-path heights by a reverse topological
	// sweep (program order is a valid topological order).
	for i := n - 1; i >= 0; i-- {
		in := ins[i]
		h := int32(machine.Latency(in, arch)) // 1 without a result
		for _, e := range sk.Succs(i) {
			if v := e.MinDelta + sk.Heights[e.To]; v > h {
				h = v
			}
		}
		sk.Heights[i] = h
	}
	return sk
}

// addEdge records from → to at distance d, keeping only the strongest
// constraint between a pair. Calls arrive in ascending to, so an
// earlier edge between the pair is the newest edge out of from.
func (bd *Builder) addEdge(from, to, d int) {
	if k := bd.last[from]; k != 0 {
		if e := &bd.pool[k-1]; int(e.to) == to {
			if int32(d) > e.delta {
				e.delta = int32(d)
			}
			return
		}
	}
	bd.pool = append(bd.pool, poolEdge{int32(from), int32(to), int32(d)})
	bd.last[from] = int32(len(bd.pool))
	bd.sk.off[from+1]++
	bd.sk.NPreds[to]++
}

// memEdges adds the edges into memory operation i from the earlier
// operations on its array that it depends on, then files i with them.
func (bd *Builder) memEdges(ins []*ir.Instr, i int) {
	in := ins[i]
	ao := bd.array(in.Mem)
	kind := kindLoad
	if in.Op == ir.OpStore {
		kind = kindStore
	}
	// addr is the access's address inside the index, -1 outside it.
	addr := -1
	if a := in.Args[0]; a.IsImm() {
		// int32 arithmetic, wrapping as disjoint's does.
		if c := a.Imm + in.Off; c >= 0 && c < indexBound {
			addr = int(c)
		}
	}
	// A load depends on earlier stores alone, a store on both kinds.
	bd.earlier(ins, ao, kindStore, addr, i)
	if kind == kindStore {
		bd.earlier(ins, ao, kindLoad, addr, i)
	}
	ao.all[kind] = append(ao.all[kind], int32(i))
	if addr < 0 {
		ao.off[kind] = append(ao.off[kind], int32(i))
		return
	}
	at := ao.at[kind]
	if addr >= len(at) {
		// Extend with zeroes: the table may hold an earlier block's.
		if addr >= cap(at) {
			at = append(make([]int32, 0, 2*(addr+1)), at...)
		}
		old := len(at)
		at = at[:addr+1]
		clear(at[old:])
		ao.at[kind] = at
	}
	bd.sameAddr[i] = at[addr]
	at[addr] = int32(i + 1)
}

// earlier adds the edges into memory operation i, at indexed address
// addr or outside the index (-1), from the accesses of one kind before
// it on its array: all of them for an access outside the index, else
// those at its address and those outside the index.
func (bd *Builder) earlier(ins []*ir.Instr, ao *arrayOps, kind, addr, i int) {
	ms := ao.all[kind]
	if addr >= 0 {
		ms = ao.off[kind]
		if at := ao.at[kind]; addr < len(at) {
			for m := at[addr]; m != 0; m = bd.sameAddr[m-1] {
				bd.dependOn(ins, int(m-1), i)
			}
		}
	}
	for _, m := range ms {
		bd.dependOn(ins, int(m), i)
	}
}

// dependOn adds the edge from memory operation m into the later i, if
// the two are ordered at all.
func (bd *Builder) dependOn(ins []*ir.Instr, m, i int) {
	if d, dep := memDependence(ins[m], ins[i]); dep {
		bd.addEdge(m, i, d)
	}
}

// array returns the record of the block's accesses to m. A kernel names
// a handful of arrays; a linear probe finds the record.
func (bd *Builder) array(m *ir.MemRef) *arrayOps {
	for k := range bd.arrays {
		if bd.arrays[k].mem == m {
			return &bd.arrays[k]
		}
	}
	if k := len(bd.arrays); k < cap(bd.arrays) {
		bd.arrays = bd.arrays[:k+1] // an earlier block's record, for its arrays
	} else {
		bd.arrays = append(bd.arrays, arrayOps{})
	}
	ao := &bd.arrays[len(bd.arrays)-1]
	ao.mem = m
	for kind := range ao.all {
		ao.all[kind] = ao.all[kind][:0]
		ao.off[kind] = ao.off[kind][:0]
		ao.at[kind] = ao.at[kind][:0]
	}
	return ao
}

// Forget drops the builder's pointers into the blocks it has built for
// (the arrays they access), keeping its tables: what an arena does with
// its builder before it goes idle.
func (bd *Builder) Forget() {
	arrays := bd.arrays[:cap(bd.arrays)]
	for k := range arrays {
		arrays[k].mem = nil
	}
}

// Materialize expands the skeleton into a pointer-form Graph over the
// given block's instructions. The block must be structurally identical
// to the one the skeleton was built from (same instruction sequence);
// the prepared-kernel cache guarantees this by only reusing skeletons
// for unmodified clones of the source function.
func (sk *Skeleton) Materialize(b *ir.Block) *Graph {
	g := &Graph{Nodes: make([]*Node, len(b.Instrs))}
	for i, in := range b.Instrs {
		g.Nodes[i] = &Node{Index: i, Instr: in, Height: int(sk.Heights[i])}
	}
	for i, from := range g.Nodes {
		for _, e := range sk.Succs(i) {
			to := g.Nodes[e.To]
			from.Succs = append(from.Succs, Edge{To: to, MinDelta: int(e.MinDelta)})
			to.Preds = append(to.Preds, Edge{To: from, MinDelta: int(e.MinDelta)})
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
		cp = max(cp, int(h))
	}
	return cp
}
