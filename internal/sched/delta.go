package sched

import (
	"customfit/internal/machine"
	"customfit/internal/vliw"
)

// Delta compilation: the explorer's stochastic strategies evaluate
// one-parameter neighbors of architectures they have already compiled,
// so almost all backend work is provably repeatable. Every compile
// already starts round 1 from its kernel's partition class (classState:
// the lowered, partitioned function with its liveness and skeletons);
// CompilePreparedDelta also keeps, per class, a small per-block cache of
// finished schedules keyed by the exact resource parameters each block
// can observe plus the dynamic certificates scheduleBlock records
// (schedCert). A second, tiny memo keyed by the identity of the
// per-block schedules caches the register allocator's verdict, so a
// fully warm neighbor move performs no scheduling and no allocation at
// all — just cache probes and program assembly out of the Scratch arena.
//
// Correctness is by reconstruction, not approximation: a cached block
// is reused only when every architecture parameter the scheduler read
// while building it compares equal (or provably never mattered — see
// lookup and schedCert), so the delta attempt is bit-identical to
// CompilePrepared's first round. When its allocation does not fit, the
// attempt — program, allocator verdict and the blame its blocks carry —
// is the spill loop's round 1: nothing is computed twice.

// blockRing is one block's cached schedules, evicted round-robin, and
// what issuing the block takes (see lookup).
type blockRing struct {
	info    machine.Charges
	entries []blockEntry
	pos     int
}

// blockEntry is one cached block schedule: the exact parameters it was
// built under, the certificates that extend its validity (schedCert),
// and what a hit hands the compile.
type blockEntry struct {
	built deltaParams
	cert  schedCert
	block cachedBlock
}

// cachedBlock is a block of round 1 as the ring keeps it: the finished
// immutable schedule, and the blame scheduling it charged (sparse,
// immutable; what the spill loop picks victims by when the assembled
// program does not fit).
type cachedBlock struct {
	id    uint32 // state-unique, never reused (allocMemo identity)
	sb    *vliw.Block
	blame []regBlame
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

// deltaParams are the arch-derived values a cached block entry is
// matched against.
type deltaParams struct {
	aluPC   int
	mulPC   int
	l2Lat   int
	l2Ports int
	capEff  int // effective (clamped) live-value budget
	budget  int // per-cycle ready-scan budget
}

// paramsOf returns the values arch's schedules are matched by, for a
// live-value budget of capRaw.
func paramsOf(arch machine.Arch, capRaw int) deltaParams {
	return deltaParams{
		aluPC:   arch.ALUsPC(),
		mulPC:   arch.MULsPC(),
		l2Lat:   arch.L2Lat,
		l2Ports: arch.L2Ports,
		capEff:  max(capRaw, 3),
		budget:  8 * (arch.ALUs + arch.L2Ports + arch.Clusters + 4),
	}
}

// lookup returns a cached schedule for block bi valid under p, if the
// ring holds one. The hit rule follows the scheduler's parameter reads:
// a parameter is compared only when the block can observe it, since one
// no instruction reads cannot affect the schedule. ALU slots (multiplies
// and inter-cluster moves take one too) read ALUsPC, multiplier slots
// MULsPC, L2 accesses L2PathsPC, L2Ports and L2Lat (the skeleton's
// latency and occupancy edges too); the custom unit's one-per-cycle
// throughput and spec-carried latency are no parameter. The budget/scan
// limits match either exactly (when the recorded run hit them) or by
// dominance over the recorded certificates (when it provably never
// did). The schedule block is immutable, so it is safe to share across
// workers and programs after the lock is dropped.
func (cs *classState) lookup(bi int, p deltaParams) (cachedBlock, bool) {
	ring := &cs.blocks[bi]
	info := &ring.info
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for i := range ring.entries {
		e := &ring.entries[i]
		b := &e.built
		if info[machine.ALU] > 0 && b.aluPC != p.aluPC {
			continue
		}
		if info[machine.MUL] > 0 && b.mulPC != p.mulPC {
			continue
		}
		if info[machine.L2] > 0 && (b.l2Lat != p.l2Lat || b.l2Ports != p.l2Ports) {
			continue
		}
		if e.cert.pressureBound {
			if b.capEff != p.capEff {
				continue
			}
		} else if p.capEff < e.cert.maxPressure {
			continue
		}
		if e.cert.scanBound {
			if b.budget != p.budget {
				continue
			}
		} else if p.budget < e.cert.maxScan {
			continue
		}
		return e.block, true
	}
	return cachedBlock{}, false
}

// insert records a freshly scheduled block, evicting round-robin past
// the per-block cap, and returns the entry. blame is copied: the
// scheduler's list lives in a Scratch, and even an empty view of it
// would have the shared class pin a worker's arena.
func (cs *classState) insert(bi int, p deltaParams, cert schedCert, sb *vliw.Block, blame []regBlame) cachedBlock {
	if len(blame) > 0 {
		blame = append([]regBlame(nil), blame...)
	} else {
		blame = nil
	}
	ring := &cs.blocks[bi]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.nextID++
	e := blockEntry{built: p, cert: cert, block: cachedBlock{cs.nextID, sb, blame}}
	if len(ring.entries) < deltaBlockEntries {
		ring.entries = append(ring.entries, e)
	} else {
		ring.entries[ring.pos] = e
		ring.pos = (ring.pos + 1) % deltaBlockEntries
	}
	return e.block
}

// allocLookup returns a memoized allocation (peak pressure, physical
// assignment) for this exact combination of block schedules at the
// given per-cluster capacity, or ok=false.
func (cs *classState) allocLookup(ids []uint32, capacity int) (maxLive, assign []int, ok bool) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
outer:
	for i := range cs.allocs {
		ae := &cs.allocs[i]
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
func (cs *classState) allocInsert(ids []uint32, maxLive, assign []int) (ml, as []int) {
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
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if len(cs.allocs) < deltaAllocEntries {
		cs.allocs = append(cs.allocs, ae)
	} else {
		cs.allocs[cs.allocPos] = ae
		cs.allocPos = (cs.allocPos + 1) % deltaAllocEntries
	}
	return ae.maxLive, ae.assign
}
