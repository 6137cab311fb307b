// Package regalloc performs per-cluster register allocation over
// scheduled VLIW programs. It computes exact per-cycle liveness from
// the schedule (matching the scheduler's pressure throttle), measures
// peak pressure, colors live-range segment unions onto physical
// registers, and suggests spill candidates when a cluster's register
// file is exceeded. The paper's central compiler feedback — "when the
// compiler started spilling register contents for a given unrolling, we
// stopped considering that unrolling factor" — comes from this
// package's Fits verdict.
package regalloc

import (
	"cmp"
	"slices"

	"customfit/internal/ir"
	"customfit/internal/obs"
	"customfit/internal/opt"
	"customfit/internal/vliw"
)

// Segment is one contiguous live span in linearized schedule
// coordinates (inclusive).
type Segment struct {
	Start, End int
}

// Range is a virtual register's full live range: a union of segments.
type Range struct {
	Reg      ir.Reg
	Cluster  int
	Segments []Segment
}

// Span returns the distance from first birth to last death — the spill
// heuristic's "length".
func (rg *Range) Span() int {
	if len(rg.Segments) == 0 {
		return 0
	}
	return rg.Segments[len(rg.Segments)-1].End - rg.Segments[0].Start
}

// Covers reports whether the range is live at linear position p.
func (rg *Range) Covers(p int) bool {
	for _, s := range rg.Segments {
		if s.Start <= p && p <= s.End {
			return true
		}
	}
	return false
}

// Result reports allocation for one program.
type Result struct {
	// MaxLive is peak simultaneous pressure per cluster (exact).
	MaxLive []int
	// Capacity is registers per cluster.
	Capacity int
	// Fits is true when every cluster both stays within capacity and
	// colors successfully.
	Fits bool
	// Overflow is max(0, MaxLive-Capacity) per cluster.
	Overflow []int
	// Victims lists spill candidates, best first (longest spans in
	// overflowing clusters). The compile driver filters and applies.
	Victims []ir.Reg
	// Assign maps vreg -> physical register within its cluster, or -1.
	Assign []int
}

// Scratch is the allocator's reusable per-worker buffer arena: the
// liveness bitsets, per-register segment builders, flattened range
// tables and coloring state that dominate its allocation profile.
// Nothing built on a Scratch outlives the Allocate call that used it
// (AllocateReuse additionally hands out the arena-owned Result), so
// one arena serves a worker's whole compile stream. Not safe for
// concurrent use.
type Scratch struct {
	segments [][]Segment
	segEnd   []int
	isLive   []bool
	liveCnt  []int
	peakAt   []int

	// Flattened range storage: ranges holds Range values, byCluster
	// holds per-cluster index lists into it (the gopherjs-style
	// flat-tables idiom: indices instead of pointer graphs).
	ranges    []Range
	byCluster [][]int32

	// Coloring state: per-physical-register busy segment lists, how
	// much of each is behind every range still to be coloured (see
	// colorCluster), and the merge double-buffer.
	busy     [][]Segment
	past     []int
	mergeBuf []Segment

	// On the path that does not fit: the ranges alive at a cluster's
	// peak, the others, and the registers already listed as victims.
	atPeak, others []int32
	seen           []bool

	// sortKeyed's copy of the range indices it sorts, with their keys.
	keys []keyed

	// AllocateReuse's arena-owned Result and its backing arrays.
	res         Result
	resMaxLive  []int
	resOverflow []int
	resAssign   []int
}

// NewScratch returns an empty allocator arena; buffers grow on first
// use and are retained across calls.
func NewScratch() *Scratch { return &Scratch{} }

// Allocate computes exact liveness, pressure and physical registers for
// a scheduled program.
func Allocate(prog *vliw.Program) *Result {
	return AllocateWith(nil, prog, nil, nil)
}

// AllocateWith is the compile driver's entry point, recorded as a
// telemetry span under sp carrying the allocation verdict (capacity,
// peak pressure, fit): lv, when non-nil, is a liveness analysis already
// computed over prog.F (the scheduler's own — allocation recomputing it
// is pure waste), and sc, when non-nil, is a reusable scratch arena.
// The returned Result is freshly allocated and safe to retain.
func AllocateWith(sp *obs.Span, prog *vliw.Program, lv *opt.Liveness, sc *Scratch) *Result {
	res := &Result{
		MaxLive:  make([]int, prog.Arch.Clusters),
		Overflow: make([]int, prog.Arch.Clusters),
		Assign:   make([]int, prog.F.NumRegs()),
	}
	return finishAllocate(sp, prog, lv, sc, res)
}

// AllocateReuse is AllocateWith with the Result itself drawn from the
// scratch arena sc, which it needs: round 1 of every compile runs it,
// with zero heap allocation in the delta compiler's steady state. The
// returned Result (and every slice it carries) is valid only until the
// next Allocate call through the same Scratch; callers that retain
// results copy what they keep, or use AllocateWith.
func AllocateReuse(sp *obs.Span, prog *vliw.Program, lv *opt.Liveness, sc *Scratch) *Result {
	res := &sc.res
	res.MaxLive = growInts(&sc.resMaxLive, prog.Arch.Clusters)
	res.Overflow = growInts(&sc.resOverflow, prog.Arch.Clusters)
	res.Assign = growInts(&sc.resAssign, prog.F.NumRegs())
	res.Victims = res.Victims[:0]
	res.Fits = false
	res.Capacity = 0
	return finishAllocate(sp, prog, lv, sc, res)
}

// finishAllocate runs the allocation into res (whose MaxLive/Overflow/
// Assign must be zeroed and sized) and records the telemetry span.
func finishAllocate(sp *obs.Span, prog *vliw.Program, lv *opt.Liveness, sc *Scratch, res *Result) *Result {
	asp := obs.Under(sp, "regalloc")
	allocate(prog, lv, sc, res)
	if asp != nil {
		maxLive := 0
		for _, m := range res.MaxLive {
			if m > maxLive {
				maxLive = m
			}
		}
		fits := int64(0)
		if res.Fits {
			fits = 1
		}
		asp.Int("capacity", int64(res.Capacity)).Int("max_live", int64(maxLive)).
			Int("fits", fits).Int("victims", int64(len(res.Victims))).End()
	}
	return res
}

func allocate(prog *vliw.Program, lv *opt.Liveness, sc *Scratch, res *Result) {
	f := prog.F
	nregs := f.NumRegs()
	nclusters := prog.Arch.Clusters
	rc := prog.Arch.RegsPC()

	res.Capacity = rc
	for i := range res.Assign {
		res.Assign[i] = -1
	}
	clusterOf := func(r ir.Reg) int {
		if int(r) < len(prog.RegCluster) {
			return prog.RegCluster[r]
		}
		return 0
	}

	if lv == nil {
		lv = opt.ComputeLiveness(f)
	}
	if sc == nil {
		sc = NewScratch()
	}
	// Segments are collected back-to-front per register. Nothing built
	// from these scratch buffers escapes this call: the Ranges below are
	// consumed before returning and the Result carries only register
	// ids and the assignment array.
	segments := sc.growSegments(nregs)
	segEnd := growInts(&sc.segEnd, nregs)
	isLive := growBools(&sc.isLive, nregs)
	liveCnt := growInts(&sc.liveCnt, nclusters)
	peakAt := growInts(&sc.peakAt, nclusters) // linear position of each cluster's pressure peak

	addLive := func(r ir.Reg, at int) {
		if !isLive[r] {
			isLive[r] = true
			segEnd[r] = at
			liveCnt[clusterOf(r)]++
		}
	}
	dropLive := func(r ir.Reg, at int) {
		if isLive[r] {
			isLive[r] = false
			segments[r] = append(segments[r], Segment{Start: at, End: segEnd[r]})
			liveCnt[clusterOf(r)]--
		}
	}

	// Blocks are linearized in order; b0 is the running base position.
	b0 := 0
	for _, sb := range prog.Blocks {
		// sb.Ops is emitted in non-decreasing cycle order, so the ops of
		// each cycle form a contiguous window scanned back-to-front —
		// no per-cycle bucket slices.
		ops := sb.Ops
		hi := len(ops)
		// Backward sweep seeded with the block's live-out set.
		liveIn, liveOut := lv.Sets(sb.IR)
		opt.EachReg(liveOut, func(r ir.Reg) { addLive(r, b0+sb.Len) })
		for t := sb.Len - 1; t >= 0; t-- {
			at := b0 + t
			lo := hi
			for lo > 0 && int(ops[lo-1].Cycle) == t {
				lo--
			}
			cyc := ops[lo:hi]
			hi = lo
			for i := range cyc {
				in := cyc[i].Instr
				for _, a := range in.Args {
					if a.IsReg() {
						addLive(a.Reg, at)
					}
				}
				if in.Op.HasDest() {
					addLive(in.Dest, at)
				}
			}
			for c := 0; c < nclusters; c++ {
				if liveCnt[c] > res.MaxLive[c] {
					res.MaxLive[c] = liveCnt[c]
					peakAt[c] = at
				}
			}
			// A register defined here stops being live below this cycle
			// unless this cycle also reads its old value.
			for i := range cyc {
				in := cyc[i].Instr
				if !in.Op.HasDest() {
					continue
				}
				d := in.Dest
				usedHere := false
				for j := range cyc {
					for _, a := range cyc[j].Instr.Args {
						if a.IsReg() && a.Reg == d {
							usedHere = true
						}
					}
				}
				if !usedHere {
					dropLive(d, at)
				}
			}
		}
		// Anything still live at block start is live-in: the sweep
		// leaves a register live there only if its earliest read in the
		// schedule has no definition before it, and a schedule issues a
		// definition before every instruction that reads it. So close
		// the segments of that set at the block's first cycle.
		opt.EachReg(liveIn, func(r ir.Reg) { dropLive(r, b0) })
		b0 += sb.Len + 1
	}

	// Build ranges. Segments are collected back-to-front within each
	// block but front-to-back across blocks, so sort by start and
	// coalesce overlaps — the overlap and coloring routines require
	// sorted, disjoint segment lists. Ranges live flat in the scratch
	// arena and are referenced by index; byCluster holds per-cluster
	// index lists.
	ranges := sc.ranges[:0]
	byCluster := sc.growClusters(nclusters)
	for r := 0; r < nregs; r++ {
		if len(segments[r]) == 0 {
			continue
		}
		segs := segments[r]
		// Most registers live in one segment. Equal starts may land in
		// either order: the merge below takes the larger end anyway.
		if len(segs) > 1 {
			slices.SortFunc(segs, func(a, b Segment) int { return cmp.Compare(a.Start, b.Start) })
		}
		merged := segs[:1]
		for _, sg := range segs[1:] {
			last := &merged[len(merged)-1]
			if sg.Start <= last.End+1 {
				if sg.End > last.End {
					last.End = sg.End
				}
				continue
			}
			merged = append(merged, sg)
		}
		c := clusterOf(ir.Reg(r))
		byCluster[c] = append(byCluster[c], int32(len(ranges)))
		ranges = append(ranges, Range{Reg: ir.Reg(r), Cluster: c, Segments: merged})
	}
	sc.ranges = ranges

	res.Fits = true
	atPeak, others := sc.atPeak[:0], sc.others[:0]
	for c := 0; c < nclusters; c++ {
		if res.MaxLive[c] > rc {
			res.Fits = false
			res.Overflow[c] = res.MaxLive[c] - rc
			// Ranges alive at the cluster's peak are the victims that
			// provably lower it; everything else is fallback.
			for _, ri := range byCluster[c] {
				if ranges[ri].Covers(peakAt[c]) {
					atPeak = append(atPeak, ri)
				} else {
					others = append(others, ri)
				}
			}
		}
	}
	// Longest span first. slices.SortFunc runs the same generated
	// pdqsort as sort.Slice, comparison for comparison, so ranges of
	// equal span keep the order sort.Slice gave them.
	span := func(ri int32) int { return ranges[ri].Span() }
	sortKeyed(atPeak, span, byKeyDesc, sc)
	sortKeyed(others, span, byKeyDesc, sc)
	victims := append(atPeak, others...)
	sc.others = others[:0]
	if res.Fits {
		// Color each cluster; pressure fitting does not guarantee
		// colorability of segment-union graphs, so a failure here
		// reports the uncolorable range as the spill victim.
		for c := 0; c < nclusters; c++ {
			if bad := colorCluster(byCluster[c], ranges, rc, res.Assign, sc); bad >= 0 {
				res.Fits = false
				res.Overflow[c]++
				victims = slices.Insert(victims, 0, bad)
			}
		}
	}
	sc.atPeak = victims[:0]
	if !res.Fits {
		seen := growBools(&sc.seen, nregs)
		for _, ri := range victims {
			if !seen[ranges[ri].Reg] {
				seen[ranges[ri].Reg] = true
				res.Victims = append(res.Victims, ranges[ri].Reg)
			}
		}
		for i := range res.Assign {
			res.Assign[i] = -1
		}
	}
}

// colorCluster assigns physical registers to the cluster's ranges
// (given by index into the flat range table), first-birth first,
// choosing the lowest physical register whose busy segments do not
// overlap the range. Returns the index of the first uncolorable range,
// or -1. Busy lists and the merge double-buffer live in the scratch
// arena.
//
// Because births only move forward, a busy segment that ended before
// the current range was born overlaps nothing from here on: past[p]
// counts the segments at the front of busy[p] known to be such, the
// overlap test and the merge start behind them, and a merge drops them.
func colorCluster(idx []int32, ranges []Range, rc int, assign []int, sc *Scratch) int32 {
	// slices.SortFunc runs sort.Slice's pdqsort, so ties land alike.
	sortKeyed(idx, func(ri int32) int { return ranges[ri].Segments[0].Start }, byKey, sc)
	busy := sc.growBusy(rc)
	past := growInts(&sc.past, rc)
	for _, ri := range idx {
		rg := &ranges[ri]
		born := rg.Segments[0].Start
		placed := false
		for p := 0; p < rc && !placed; p++ {
			b := busy[p][past[p]:]
			for len(b) > 0 && b[0].End < born {
				b = b[1:]
				past[p]++
			}
			if overlapsAny(b, rg.Segments) {
				continue
			}
			sc.mergeBuf = mergeInto(sc.mergeBuf[:0], b, rg.Segments)
			busy[p] = append(busy[p][:0], sc.mergeBuf...)
			past[p] = 0
			assign[rg.Reg] = p
			placed = true
		}
		if !placed {
			return ri
		}
	}
	return -1
}

// keyed is a range index beside the key it is sorted by.
type keyed struct {
	key int
	ri  int32
}

func byKey(a, b keyed) int     { return cmp.Compare(a.key, b.key) }
func byKeyDesc(a, b keyed) int { return cmp.Compare(b.key, a.key) }

// sortKeyed sorts idx, range indices, by key under order: byKey
// ascending, byKeyDesc descending. It reads each key once into a copy
// of idx in sc and sorts the copy, where the sort's comparisons would
// otherwise each chase two ranges for their keys. The order compares
// keys alone, so slices.SortFunc makes the same comparisons at the same
// positions as on idx itself and the permutation is the same, ties
// included.
func sortKeyed(idx []int32, key func(int32) int, order func(a, b keyed) int, sc *Scratch) {
	if len(idx) < 2 {
		return
	}
	keys := sc.keys[:0]
	for _, ri := range idx {
		keys = append(keys, keyed{key(ri), ri})
	}
	slices.SortFunc(keys, order)
	for i, k := range keys {
		idx[i] = k.ri
	}
	sc.keys = keys[:0]
}

// overlapsAny reports whether any segment in b overlaps any in s (both
// sorted by Start).
func overlapsAny(b, s []Segment) bool {
	i, j := 0, 0
	for i < len(b) && j < len(s) {
		if b[i].End < s[j].Start {
			i++
		} else if s[j].End < b[i].Start {
			j++
		} else {
			return true
		}
	}
	return false
}

// growSegments sizes the per-register segment builders to n registers,
// emptying each while keeping its backing array for reuse.
func (sc *Scratch) growSegments(n int) [][]Segment {
	if cap(sc.segments) < n {
		old := sc.segments[:cap(sc.segments)]
		sc.segments = make([][]Segment, n)
		copy(sc.segments, old)
	}
	sc.segments = sc.segments[:n]
	for i := range sc.segments {
		sc.segments[i] = sc.segments[i][:0]
	}
	return sc.segments
}

// growInts resizes buf to n zeroed entries, reusing capacity.
func growInts(buf *[]int, n int) []int {
	s := *buf
	if cap(s) < n {
		s = make([]int, n)
	} else {
		s = s[:n]
		for i := range s {
			s[i] = 0
		}
	}
	*buf = s
	return s
}

// growBools is growInts for bool buffers.
func growBools(buf *[]bool, n int) []bool {
	s := *buf
	if cap(s) < n {
		s = make([]bool, n)
	} else {
		s = s[:n]
		for i := range s {
			s[i] = false
		}
	}
	*buf = s
	return s
}

// mergeInto merges two sorted segment lists into out (appending),
// returning the extended slice — allocation-free once out's backing
// array has grown to the working-set size.
func mergeInto(out, a, b []Segment) []Segment {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case i == len(a):
			out = append(out, b[j])
			j++
		case j == len(b):
			out = append(out, a[i])
			i++
		case a[i].Start <= b[j].Start:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	return out
}

// growClusters sizes the per-cluster range-index lists to n clusters,
// emptying each while keeping backing arrays for reuse.
func (sc *Scratch) growClusters(n int) [][]int32 {
	if cap(sc.byCluster) < n {
		old := sc.byCluster[:cap(sc.byCluster)]
		sc.byCluster = make([][]int32, n)
		copy(sc.byCluster, old)
	}
	sc.byCluster = sc.byCluster[:n]
	for i := range sc.byCluster {
		sc.byCluster[i] = sc.byCluster[i][:0]
	}
	return sc.byCluster
}

// growBusy sizes the per-physical-register busy lists to n registers,
// emptying each while keeping backing arrays for reuse.
func (sc *Scratch) growBusy(n int) [][]Segment {
	if cap(sc.busy) < n {
		old := sc.busy[:cap(sc.busy)]
		sc.busy = make([][]Segment, n)
		copy(sc.busy, old)
	}
	sc.busy = sc.busy[:n]
	for i := range sc.busy {
		sc.busy[i] = sc.busy[i][:0]
	}
	return sc.busy
}
