package sched

import (
	"sync"

	"customfit/internal/ddg"
	"customfit/internal/ir"
	"customfit/internal/machine"
)

// Prepared wraps an optimized+unrolled kernel with a cache of the
// architecture-independent pre-scheduling artifacts that every backend
// run over the same kernel would otherwise rebuild: the per-block
// dependence skeletons and latency-weighted critical-path heights.
//
// The dependence rules read exactly one architecture parameter — the
// Level-2 latency (machine.Latency / machine.Occupancy) — so skeletons are
// cached per L2 latency class and shared by every architecture in the
// class. The cached skeletons describe F's pristine blocks; the compile
// driver only consults them while the working copy is still
// instruction-for-instruction identical to F (first spill iteration,
// single cluster, no min/max fusion).
//
// A Prepared is immutable after construction apart from the internal
// cache and is safe for concurrent use by many workers.
type Prepared struct {
	F *ir.Func

	// oneShot marks a Prepared that CompileSpan wrapped around a kernel
	// for a single compile: nothing is cached on it.
	oneShot bool

	skels skelCache // of F's pristine blocks

	mu     sync.Mutex
	deltas map[deltaKey]*deltaState // partition class -> delta-compile cache

	// Per-block operation-class tallies for LowerBound, built once on
	// first use (architecture-independent; see bound.go).
	countsOnce sync.Once
	counts     []machine.Charges
}

// skelCache holds one function's per-block dependence skeletons, one
// set per L2 latency class. Each set carries its own once, so two
// workers racing on a cold latency class build it exactly once without
// holding the cache lock during construction.
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

// NewPrepared wraps an optimized kernel for repeated compilation. The
// caller must not mutate f afterwards.
func NewPrepared(f *ir.Func) *Prepared {
	return &Prepared{F: f}
}

// skeletons returns the per-block dependence skeletons of F for arch's
// latency class (see skelCache.get for bd).
func (p *Prepared) skeletons(arch machine.Arch, bd *ddg.Builder) []*ddg.Skeleton {
	return p.skels.get(p.F, arch, bd)
}
