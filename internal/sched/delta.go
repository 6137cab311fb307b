package sched

import (
	"sync"

	"customfit/internal/ddg"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/obs"
	"customfit/internal/opt"
	"customfit/internal/regalloc"
	"customfit/internal/vliw"
)

// Delta compilation: the explorer's stochastic strategies evaluate
// one-parameter neighbors of architectures they have already compiled,
// so almost all backend work is provably repeatable. A deltaState
// caches, per (Clusters, MinMax) class of one Prepared kernel, the
// transforms that rewrite the instruction stream (min/max fusion,
// cluster partitioning) together with their liveness analysis, then
// keeps a small per-block cache of finished schedules keyed by the
// exact resource parameters each block can observe plus the dynamic
// certificates scheduleBlock records (schedCert). A second, tiny memo
// keyed by the identity of the per-block schedules caches the register
// allocator's verdict, so a fully warm neighbor move performs no
// scheduling and no allocation at all — just cache probes and program
// assembly out of the Scratch arena.
//
// Correctness is by reconstruction, not approximation: a cached block
// is reused only when every architecture parameter the scheduler read
// while building it compares equal (or provably never mattered — see
// lookup and schedCert), so the delta attempt is bit-identical to
// CompilePrepared's first round. When its allocation does not fit, the
// attempt — program, allocator verdict and the blame its blocks carry —
// is the spill loop's round 1: nothing is computed twice.

// deltaKey selects a cached partition class. Custom-op rewriting,
// min/max fusion and cluster partitioning are the only transforms that
// rewrite the instruction stream before scheduling, and each reads
// exactly one architecture parameter (Ops, MinMax, Clusters). The ops
// component is the enabled-spec content key, so two masks enabling the
// same specs share a class.
type deltaKey struct {
	clusters int
	minmax   bool
	ops      string
}

// blockEntry is one cached block schedule: the exact parameters it was
// built under, the certificates that extend its validity (schedCert),
// the finished immutable schedule, and the blame scheduling it charged
// (sparse, immutable; what the spill loop picks victims by when the
// assembled program does not fit).
type blockEntry struct {
	id      uint32 // state-unique, never reused (allocMemo identity)
	aluPC   int
	mulPC   int
	l2Lat   int
	l2Ports int
	capEff  int // effective (clamped) live-value budget
	budget  int // per-cycle ready-scan budget
	cert    schedCert
	sb      *vliw.Block
	blame   []regBlame
}

// allocEntry memoizes one successful register allocation over a
// particular combination of cached block schedules (identified by
// entry ids). maxPhys is the highest physical register the coloring
// used: any capacity above both maxLive and maxPhys reproduces the
// identical allocation, because the lowest-free-register search never
// consults capacity below the registers it actually assigns.
type allocEntry struct {
	ids     []uint32
	maxLive []int
	assign  []int
	maxPhys int
}

const (
	// deltaBlockEntries caps cached schedules per block per state; the
	// ring evicts round-robin. Results never depend on cache contents,
	// only time does, so the bound is purely a memory ceiling for
	// full-space sweeps.
	deltaBlockEntries = 8
	// deltaAllocEntries caps memoized allocation verdicts per state.
	deltaAllocEntries = 8
)

// deltaState caches the partition class's compile artifacts. The
// partitioned clone, placement, liveness and block infos are immutable
// after the once; the schedule/alloc caches are mutex-guarded. Safe
// for concurrent use by many workers.
type deltaState struct {
	once   sync.Once
	g      *ir.Func
	pl     *Placement
	lv     *opt.Liveness
	info   []machine.Charges // what issuing each block takes (see lookup)
	shared bool              // pristine single-cluster: reuse Prepared's skeletons
	skels  skelCache         // of g's blocks, when !shared

	mu       sync.Mutex
	nextID   uint32
	blocks   [][]blockEntry
	blockPos []int
	allocs   []allocEntry
	allocPos int
}

// delta returns the state for arch's partition class, building it on
// first use (once per class, off the cache lock).
func (p *Prepared) delta(arch machine.Arch, sc *Scratch) *deltaState {
	key := deltaKey{clusters: arch.Clusters, minmax: arch.MinMax, ops: arch.Ops.Key()}
	p.mu.Lock()
	if p.deltas == nil {
		p.deltas = make(map[deltaKey]*deltaState)
	}
	ds := p.deltas[key]
	if ds == nil {
		ds = &deltaState{}
		p.deltas[key] = ds
	}
	p.mu.Unlock()
	ds.once.Do(func() { ds.build(p.F, arch, sc) })
	return ds
}

// build replays exactly what the spill loop's first round does to the
// instruction stream for this class: clone, optionally rewrite custom
// ops and fuse min/max, partition. The clone keeps every per-compile
// mutation off the shared Prepared (Partition stamps clusters in place,
// and ComputeLiveness recomputes the CFG).
func (ds *deltaState) build(src *ir.Func, arch machine.Arch, sc *Scratch) {
	work := lowerFor(src, arch)
	if arch.Clusters <= 1 {
		ds.g = work
		ds.pl = partition(work, work, nil, arch, &sc.part)
	} else {
		ds.g, ds.pl = partitionClone(work, arch, &sc.part)
	}
	ds.shared = arch.Clusters <= 1 && !rewritesISA(arch)
	ds.lv = opt.ComputeLiveness(ds.g)
	ds.info = make([]machine.Charges, len(ds.g.Blocks))
	ds.blocks = make([][]blockEntry, len(ds.g.Blocks))
	ds.blockPos = make([]int, len(ds.g.Blocks))
	for i, b := range ds.g.Blocks {
		ds.info[i] = machine.IssueCharges(b.Instrs)
	}
}

// skeletons returns per-block dependence skeletons for arch's L2
// latency class over the state's partitioned function. The pristine
// single-cluster state shares the Prepared's skeleton cache (its
// blocks are instruction-identical); fused or clustered states keep
// their own, which extends skeleton reuse to machines the original
// driver rebuilt them for every compile.
func (ds *deltaState) skeletons(p *Prepared, arch machine.Arch, bd *ddg.Builder) []*ddg.Skeleton {
	if ds.shared {
		return p.skeletons(arch, bd)
	}
	return ds.skels.get(ds.g, arch, bd)
}

// deltaParams are the arch-derived values a cached block entry is
// matched against.
type deltaParams struct {
	aluPC   int
	mulPC   int
	l2Lat   int
	l2Ports int
	capEff  int
	budget  int
}

// lookup returns a cached schedule for block bi valid under p, or nil.
// The hit rule follows the scheduler's parameter reads: a parameter is
// compared only when the block can observe it, since one no
// instruction reads cannot affect the schedule. ALU slots (multiplies
// and inter-cluster moves take one too) read ALUsPC, multiplier slots
// MULsPC, L2 accesses L2PathsPC, L2Ports and L2Lat (the skeleton's
// latency and occupancy edges too); the custom unit's one-per-cycle
// throughput and spec-carried latency are no parameter. The budget/scan
// limits match either exactly (when the recorded run hit them) or by
// dominance over the recorded certificates (when it provably never
// did). The schedule block is immutable, so it is safe to share across
// workers and programs after the lock is dropped.
func (ds *deltaState) lookup(bi int, p deltaParams) (blockEntry, bool) {
	info := &ds.info[bi]
	ds.mu.Lock()
	defer ds.mu.Unlock()
	for i := range ds.blocks[bi] {
		e := &ds.blocks[bi][i]
		if info.ALU > 0 && e.aluPC != p.aluPC {
			continue
		}
		if info.MUL > 0 && e.mulPC != p.mulPC {
			continue
		}
		if info.L2 > 0 && (e.l2Lat != p.l2Lat || e.l2Ports != p.l2Ports) {
			continue
		}
		if e.cert.pressureBound {
			if e.capEff != p.capEff {
				continue
			}
		} else if p.capEff < e.cert.maxPressure {
			continue
		}
		if e.cert.scanBound {
			if e.budget != p.budget {
				continue
			}
		} else if p.budget < e.cert.maxScan {
			continue
		}
		return *e, true
	}
	return blockEntry{}, false
}

// insert records a freshly scheduled block, evicting round-robin past
// the per-block cap, and returns the entry. blame is copied: the
// scheduler's list lives in a Scratch.
func (ds *deltaState) insert(bi int, p deltaParams, cert schedCert, sb *vliw.Block, blame []regBlame) blockEntry {
	if len(blame) > 0 {
		blame = append([]regBlame(nil), blame...)
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.nextID++
	e := blockEntry{
		id: ds.nextID, aluPC: p.aluPC, mulPC: p.mulPC,
		l2Lat: p.l2Lat, l2Ports: p.l2Ports, capEff: p.capEff,
		budget: p.budget, cert: cert, sb: sb, blame: blame,
	}
	if len(ds.blocks[bi]) < deltaBlockEntries {
		ds.blocks[bi] = append(ds.blocks[bi], e)
	} else {
		ds.blocks[bi][ds.blockPos[bi]] = e
		ds.blockPos[bi] = (ds.blockPos[bi] + 1) % deltaBlockEntries
	}
	return e
}

// allocLookup returns a memoized allocation (peak pressure, physical
// assignment) for this exact combination of block schedules at the
// given per-cluster capacity, or ok=false.
func (ds *deltaState) allocLookup(ids []uint32, capacity int) (maxLive, assign []int, ok bool) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
outer:
	for i := range ds.allocs {
		ae := &ds.allocs[i]
		if len(ae.ids) != len(ids) || ae.maxPhys >= capacity {
			continue
		}
		for j := range ids {
			if ae.ids[j] != ids[j] {
				continue outer
			}
		}
		for _, m := range ae.maxLive {
			if m > capacity {
				continue outer
			}
		}
		return ae.maxLive, ae.assign, true
	}
	return nil, nil, false
}

// allocInsert memoizes a successful allocation. All slices are copied:
// the caller's live in scratch arenas.
func (ds *deltaState) allocInsert(ids []uint32, maxLive, assign []int) (ml, as []int) {
	ae := allocEntry{
		ids:     append([]uint32(nil), ids...),
		maxLive: append([]int(nil), maxLive...),
		assign:  append([]int(nil), assign...),
		maxPhys: -1,
	}
	for _, p := range ae.assign {
		if p > ae.maxPhys {
			ae.maxPhys = p
		}
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if len(ds.allocs) < deltaAllocEntries {
		ds.allocs = append(ds.allocs, ae)
	} else {
		ds.allocs[ds.allocPos] = ae
		ds.allocPos = (ds.allocPos + 1) % deltaAllocEntries
	}
	return ae.maxLive, ae.assign
}

// CompilePreparedDelta is CompilePrepared through the delta cache: round
// 1 is assembled from cached block schedules (scheduling only the
// blocks no entry proves) and a memoized allocation verdict, and when
// the program does not fit the spill loop continues from that round.
// Results are bit-identical to CompilePrepared in every case.
//
// A Result that needed no spill round has its Program shell and block
// table in sc's arenas and no blame table: it is valid only until the
// next compile through the same Scratch. Callers that retain programs
// should use CompilePrepared.
func CompilePreparedDelta(sp *obs.Span, prep *Prepared, arch machine.Arch, sc *Scratch) (*Result, error) {
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	if sc == nil {
		sc = NewScratch()
	}
	ds := prep.delta(arch, sc)
	params := deltaParams{
		aluPC:   arch.ALUsPC(),
		mulPC:   arch.MULsPC(),
		l2Lat:   arch.L2Lat,
		l2Ports: arch.L2Ports,
		budget:  8 * (arch.ALUs + arch.L2Ports + arch.Clusters + 4),
	}
	capRaw := arch.RegsPC() - pressureReserve
	params.capEff = capRaw
	if params.capEff < 3 {
		params.capEff = 3
	}

	csp := obs.Under(sp, "sched.delta")
	if csp != nil {
		csp.Str("kernel", prep.F.Name).Str("arch", arch.String())
		defer csp.End()
	}

	blocks := sc.progBlocks[:0]
	ids := sc.entryIDs[:0]
	blames := sc.entryBlame[:0]
	var skels []*ddg.Skeleton
	hits := 0
	for bi, b := range ds.g.Blocks {
		e, ok := ds.lookup(bi, params)
		if !ok {
			if skels == nil {
				skels = ds.skeletons(prep, arch, &sc.skel)
			}
			sb, cert, blame, err := scheduleBlock(ds.g, b, arch, ds.pl, ds.lv, capRaw, false, skels[bi], sc)
			if err != nil {
				// Cached blocks cannot fail, so this is the block and the
				// error scheduleFunc stops at.
				return nil, blockError(ds.g, b, err)
			}
			e = ds.insert(bi, params, cert, sb, blame)
		} else {
			hits++
		}
		blocks = append(blocks, e.sb)
		ids = append(ids, e.id)
		blames = append(blames, e.blame)
	}
	sc.progBlocks = blocks[:0]
	sc.entryIDs = ids[:0]
	sc.entryBlame = blames[:0]
	obs.GetCounter("sched.delta_block_hits").Add(int64(hits))
	obs.GetCounter("sched.delta_block_misses").Add(int64(len(blocks) - hits))
	if csp != nil {
		csp.Int("block_hits", int64(hits)).Int("blocks", int64(len(blocks)))
	}

	prog := &sc.prog
	*prog = vliw.Program{
		Arch:       arch,
		F:          ds.g,
		Blocks:     blocks,
		RegCluster: ds.pl.RegCluster,
	}

	capacity := arch.RegsPC()
	maxLive, assign, ok := ds.allocLookup(ids, capacity)
	if !ok {
		ra := regalloc.AllocateReuse(csp, prog, ds.lv, sc.RA)
		if !ra.Fits {
			// The attempt is the spill loop's round 1. The loop rewrites
			// the lowered IR, so it gets a copy of its own: the one
			// build partitioned into g, made again.
			obs.GetCounter("sched.delta_fallbacks").Inc()
			prog.Blame = grow(&sc.blame, ds.g.NumRegs())
			for _, blame := range blames {
				addBlame(prog.Blame, blame)
			}
			return spillLoop(csp, prep, arch, sc, lowerFor(prep.F, arch), &attempt{prog, ra})
		}
		maxLive, assign = ds.allocInsert(ids, ra.MaxLive, ra.Assign)
	} else {
		obs.GetCounter("sched.delta_alloc_hits").Inc()
	}
	prog.Spills = 0
	prog.MaxLive = maxLive
	prog.PhysAssign = assign
	res := &sc.result
	*res = Result{Prog: prog, Spilled: 0, Iterations: 1}
	return res, nil
}
