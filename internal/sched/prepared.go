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

	mu      sync.Mutex
	classes map[classKey]*classState
}

// NewPrepared wraps an optimized kernel for repeated compilation. The
// caller must not mutate f afterwards.
func NewPrepared(f *ir.Func) *Prepared {
	return &Prepared{F: f}
}

// classKey selects a partition class. Custom-op rewriting, min/max
// fusion and cluster partitioning are the only transforms that rewrite
// the instruction stream before scheduling, and each reads exactly one
// architecture parameter (Ops, MinMax, Clusters). The ops component is
// the enabled-spec content key, so two masks enabling the same specs
// share a class.
type classKey struct {
	clusters int
	minmax   bool
	ops      string
}

// classState is what every round 1 over one partition class of a kernel
// starts from. src, g, pl, lv and the rings' info are immutable after
// build; the skeleton sets are built once each; the delta caches
// (delta.go) are mutex-guarded. Safe for concurrent use by many workers.
type classState struct {
	once sync.Once
	// src is the architecture-lowered pre-partition function, what the
	// spill loop rewrites (a copy of it, when another compile may read
	// it). It is the kernel itself on a clustered machine with no ISA
	// rewrite, because partitionClone only reads it, and one copy
	// otherwise.
	src *ir.Func
	// g is src partitioned, with its placement and liveness: src itself
	// on one cluster, where partitioning only stamps cluster 0.
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
	key := classKey{clusters: arch.Clusters, minmax: arch.MinMax, ops: arch.Ops.Key()}
	p.mu.Lock()
	if p.classes == nil {
		p.classes = make(map[classKey]*classState)
	}
	cs := p.classes[key]
	if cs == nil {
		cs = &classState{}
		p.classes[key] = cs
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

// build lowers f for arch's class and partitions it. The copy keeps
// every per-compile mutation off the shared kernel (custom-op and
// min/max rewrites, and on one cluster the partitioner's cluster
// stamps). A kept class also sizes its per-block schedule rings.
func (cs *classState) build(f *ir.Func, arch machine.Arch, sc *Scratch, keep bool) {
	cs.src = f
	if arch.Clusters <= 1 || rewritesISA(arch) {
		cs.src = lowerFor(f, arch)
	}
	cs.g, cs.pl = partitionFor(cs.src, arch, &sc.part, nil)
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
	blocks []*ddg.Skeleton
}

// get returns the skeletons of f's blocks for arch's latency class,
// building them on first use — with bd, whose tables are already grown
// when it is a compile's Scratch builder (no skeleton view of it may be
// in use), or with a builder of its own when bd is nil. Either way one
// builder serves all of f's blocks and the cache keeps owned copies.
// Every call on one cache must pass the same, no longer mutated f.
func (c *skelCache) get(f *ir.Func, arch machine.Arch, bd *ddg.Builder) []*ddg.Skeleton {
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
		s.blocks = make([]*ddg.Skeleton, len(f.Blocks))
		for i, b := range f.Blocks {
			s.blocks[i] = bd.Build(b, arch).Clone()
		}
	})
	return s.blocks
}
