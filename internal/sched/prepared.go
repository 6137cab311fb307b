package sched

import (
	"sync"

	"customfit/internal/ddg"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/opt"
)

// Prepared wraps an optimized+unrolled kernel with a cache of what every
// backend run over the same kernel would otherwise rebuild, kept per
// partition class (classState): the architecture-lowered and
// partitioned function with its liveness, the per-block dependence
// skeletons, and the delta compiler's block schedules and allocation
// verdicts.
//
// A Prepared is immutable after construction apart from the internal
// cache and is safe for concurrent use by many workers.
type Prepared struct {
	F *ir.Func
	// Variant is the backend every compile of F runs under; F was
	// optimized and unrolled under its Passes.
	Variant Variant

	mu      sync.Mutex
	classes map[string]*classState // by appendClassKey
}

// NewPrepared wraps an optimized kernel for repeated compilation by the
// shipped backend. The caller must not mutate f afterwards.
func NewPrepared(f *ir.Func) *Prepared {
	return &Prepared{F: f}
}

// appendClassKey appends the key of arch's partition class to b.
// Custom-op rewriting, min/max fusion and cluster partitioning are the
// only transforms that rewrite the instruction stream before
// scheduling, and each reads exactly one architecture parameter
// (Clusters, MinMax, Ops): the key is a byte for each of the first two
// (a machine has at most 16 clusters) and then the enabled-spec content
// key, so two masks enabling the same specs share a class. Spelled into
// a buffer on the stack, a lookup allocates nothing, ops or not.
func appendClassKey(b []byte, arch machine.Arch) []byte {
	minmax := byte(0)
	if arch.MinMax {
		minmax = 1
	}
	return arch.Ops.AppendKey(append(b, byte(arch.Clusters), minmax))
}

// classState is what every round 1 over one partition class of a kernel
// starts from. src, g, pl, lv and the rings' info are immutable after
// build; the skeleton sets are built once each; the delta caches
// (delta.go) are mutex-guarded. Safe for concurrent use by many workers.
type classState struct {
	once sync.Once
	// src is the architecture-lowered pre-partition function, what the
	// spill loop rewrites (a copy of it, when another compile may read
	// it). It is the kernel itself on a machine with no ISA rewrite,
	// because neither partitionClone nor the one-cluster class writes
	// it, and one copy otherwise.
	src *ir.Func
	// g is src partitioned, with its placement and liveness: src itself
	// on one cluster, under an all-zero placement. Partitioning would
	// only stamp cluster 0 on instructions that carry it already (an
	// instruction's Cluster is zero until a partitioner sets it).
	g      *ir.Func
	pl     *Placement
	lv     *opt.Liveness
	skels  skelCache   // of g's blocks
	blocks []blockRing // per block of g, when the class is kept

	mu       sync.Mutex
	nextID   uint32
	allocs   []allocEntry
	allocPos int
}

// class returns arch's partition class of p's kernel, building it on
// first use (once per class, off the cache lock) out of sc's tables, or
// out of a borrowed arena's when sc is nil.
func (p *Prepared) class(arch machine.Arch, sc *Scratch) *classState {
	var buf [96]byte
	key := appendClassKey(buf[:0], arch)
	p.mu.Lock()
	cs := p.classes[string(key)]
	if cs == nil {
		if p.classes == nil {
			p.classes = make(map[string]*classState)
		}
		cs = &classState{}
		p.classes[string(key)] = cs
	}
	p.mu.Unlock()
	cs.once.Do(func() {
		if sc == nil {
			sc = GetScratch()
			defer PutScratch(sc)
		}
		cs.build(p.F, arch, sc, true)
	})
	return cs
}

// build lowers f for arch's class and partitions it. The copy lowerFor
// makes for an ISA rewrite keeps the custom-op and min/max rewrites off
// the shared kernel; with none, f is read and never written. A kept
// class also sizes its per-block schedule rings.
func (cs *classState) build(f *ir.Func, arch machine.Arch, sc *Scratch, keep bool) {
	cs.src = f
	if rewritesISA(arch) {
		cs.src = lowerFor(f, arch)
	}
	if arch.Clusters <= 1 {
		cs.g, cs.pl = cs.src, &Placement{RegCluster: make([]int, cs.src.NumRegs())}
	} else {
		cs.g, cs.pl = partitionClone(cs.src, arch, &sc.part, nil)
	}
	cs.lv = opt.ComputeLiveness(cs.g)
	if keep {
		cs.blocks = make([]blockRing, len(cs.g.Blocks))
		for i, b := range cs.g.Blocks {
			cs.blocks[i].info = machine.IssueCharges(b.Instrs)
		}
	}
}

// skelCache holds one function's per-block dependence skeletons, one
// set per L2 latency class: the dependence rules read exactly one
// architecture parameter, the Level-2 latency (machine.Latency /
// machine.Occupancy). Each set carries its own once, so two workers
// racing on a cold latency class build it exactly once without holding
// the cache lock during construction.
type skelCache struct {
	mu   sync.Mutex
	sets map[int]*skelSet
}

type skelSet struct {
	once   sync.Once
	blocks []ddg.Skeleton
}

// get returns the skeletons of f's blocks for arch's latency class,
// building them on first use — with bd, whose tables are already grown
// when it is a compile's Scratch builder (no skeleton view of it may be
// in use), or with a builder of its own when bd is nil. Either way one
// builder serves all of f's blocks and the cache keeps them packed
// (ddg.Builder.BuildSet): a set is a fixed number of objects, and its
// arrays are shared read only by every compile of the class. Every call
// on one cache must pass the same, no longer mutated f.
func (c *skelCache) get(f *ir.Func, arch machine.Arch, bd *ddg.Builder) []ddg.Skeleton {
	c.mu.Lock()
	if c.sets == nil {
		c.sets = make(map[int]*skelSet)
	}
	s := c.sets[arch.L2Lat]
	if s == nil {
		s = &skelSet{}
		c.sets[arch.L2Lat] = s
	}
	c.mu.Unlock()
	s.once.Do(func() {
		if bd == nil {
			bd = new(ddg.Builder)
		}
		s.blocks = bd.BuildSet(f.Blocks, arch)
	})
	return s.blocks
}
