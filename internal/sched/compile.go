package sched

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"customfit/internal/ddg"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/obs"
	"customfit/internal/ops"
	"customfit/internal/regalloc"
	"customfit/internal/vliw"
)

// MaxSpillIterations bounds the schedule → allocate → spill loop.
const MaxSpillIterations = 32

// ErrNoFit reports that register pressure could not be brought within
// the target's register files at this unroll factor. The explorer
// treats it exactly like the paper treats the first spill: stop
// considering this unroll factor and all larger ones.
var ErrNoFit = errors.New("register pressure does not fit")

// Result is a completed compilation for one architecture.
type Result struct {
	Prog *vliw.Program
	// Spilled is the number of virtual registers spilled or
	// rematerialized to make the program fit the register files — the
	// explorer's unroll-until-spill signal.
	Spilled int
	// Iterations is how many schedule/allocate rounds were needed.
	Iterations int
}

// Compile runs the backend on a prepared (optimized, unrolled) kernel:
// cluster partitioning, list scheduling, register allocation, and the
// spill iteration until the program fits the target's register files.
// The input function is not mutated.
func Compile(prepared *ir.Func, arch machine.Arch) (*Result, error) {
	return CompileSpan(nil, prepared, arch)
}

// CompileSpan is Compile with each backend stage (partition, schedule,
// regalloc, spill) recorded as telemetry spans nested under sp. It
// compiles once: the partition class is built for this compile alone
// and caches no skeletons.
func CompileSpan(sp *obs.Span, prepared *ir.Func, arch machine.Arch) (*Result, error) {
	return compile(sp, "sched", prepared, nil, arch, nil, false)
}

// CompilePrepared compiles a shared Prepared kernel for one
// architecture. Round 1 starts from the kernel's partition class, which
// the Prepared keeps (the lowered and partitioned function, its
// liveness and its dependence skeletons per L2 latency class); no
// schedule or allocation is reused. prep may be shared across
// concurrent workers; sc may not (pass nil to borrow one for the call).
// The prepared IR is not mutated, and the Result owns its memory.
func CompilePrepared(sp *obs.Span, prep *Prepared, arch machine.Arch, sc *Scratch) (*Result, error) {
	return compile(sp, "sched", prep.F, prep, arch, sc, false)
}

// CompilePreparedDelta is CompilePrepared through the delta cache: round
// 1 is assembled from cached block schedules (scheduling only the
// blocks no entry proves) and a memoized allocation verdict, and when
// the program does not fit the spill loop continues from that round.
// Results are bit-identical to CompilePrepared in every case.
//
// Given an arena, a Result that needed no spill round has its Program
// shell and block table in sc's arenas and no blame table: it is valid
// only until the next compile through the same Scratch. With sc nil the
// call borrows one and the Result owns its memory, as CompilePrepared's
// does.
func CompilePreparedDelta(sp *obs.Span, prep *Prepared, arch machine.Arch, sc *Scratch) (*Result, error) {
	return compile(sp, "sched.delta", prep.F, prep, arch, sc, true)
}

// rewritesISA reports whether lowerFor changes the instruction stream
// for arch, beyond copying it.
func rewritesISA(arch machine.Arch) bool { return !arch.Ops.Empty() || arch.MinMax }

// lowerFor returns a private copy of the prepared kernel with the
// architecture's instruction-set rewrites applied: custom-op fusion and
// min/max fusion.
func lowerFor(src *ir.Func, arch machine.Arch) *ir.Func {
	work := src.Clone()
	if !arch.Ops.Empty() {
		ops.Rewrite(work, arch.Ops)
	}
	if arch.MinMax {
		FuseMinMax(work)
	}
	return work
}

// partitionFor partitions src for arch. A single cluster is partitioned
// in place — it only stamps cluster 0 on every instruction, which is
// idempotent — and clustered machines rewrite the instruction stream
// (copy insertion, operand localization), so src is cloned in the same
// pass and only read. With r, a spill round's memory, what partitioning
// makes is cut from it (see partition).
func partitionFor(src *ir.Func, arch machine.Arch, ps *partScratch, r *roundMem) (*ir.Func, *Placement) {
	if arch.Clusters <= 1 {
		return src, partition(src, src, nil, arch, ps, r)
	}
	return partitionClone(src, arch, ps, r)
}

// compile is the one compile driver. Round 1 is assembled from arch's
// partition class of f: prep's kept class, or with prep nil one built
// for this compile alone. With reuse, blocks a cached schedule proves
// and an allocation the memo holds are taken from the class (delta.go);
// without, every block is scheduled. When the allocation does not fit,
// the spill loop continues from that round. Handed no arena, the call
// borrows one and returns a Result that owns its memory.
func compile(sp *obs.Span, span string, f *ir.Func, prep *Prepared, arch machine.Arch, sc *Scratch, reuse bool) (*Result, error) {
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	csp := obs.Under(sp, span)
	if csp != nil {
		csp.Str("kernel", f.Name).Str("arch", arch.String())
		defer csp.End()
	}
	owned := !reuse || sc == nil
	if sc == nil {
		sc = GetScratch()
		defer PutScratch(sc)
	}
	var cs *classState
	var v Variant
	if prep != nil {
		cs, v = prep.class(arch, sc), prep.Variant
	} else {
		cs = new(classState)
		cs.build(f, arch, sc, false)
	}

	capRaw := v.liveBudget(arch)
	params := paramsOf(arch, capRaw)
	blocks := sc.progBlocks[:0]
	ids := sc.entryIDs[:0]
	blames := sc.entryBlame[:0]
	var blame []int // round 1's blame table, when no block comes from the ring
	if !reuse {
		blame = make([]int, cs.g.NumRegs())
	}
	var skels []ddg.Skeleton
	hits := 0
	for bi, b := range cs.g.Blocks {
		var e cachedBlock
		ok := false
		if reuse {
			e, ok = cs.lookup(bi, params)
		}
		if ok {
			hits++
		} else {
			var sk *ddg.Skeleton
			if prep == nil {
				sk = sc.skel.Build(b, arch)
			} else {
				if skels == nil {
					skels = cs.skels.get(cs.g, arch, &sc.skel)
				}
				sk = &skels[bi]
			}
			sb := newBlock(b, arch.Clusters)
			cert, bl, err := scheduleBlock(cs.g, b, arch, cs.pl, cs.lv, capRaw, false, sk, sc, sb)
			if err != nil {
				return nil, blockError(cs.g, b, err)
			}
			if reuse {
				e = cs.insert(bi, params, cert, sb, bl)
			} else {
				e.sb = sb
				addBlame(blame, bl)
			}
		}
		blocks = append(blocks, e.sb)
		ids = append(ids, e.id)
		blames = append(blames, e.blame)
	}
	sc.progBlocks = blocks[:0]
	sc.entryIDs = ids[:0]
	sc.entryBlame = blames[:0]
	if reuse {
		obs.GetCounter("sched.delta_block_hits").Add(int64(hits))
		obs.GetCounter("sched.delta_block_misses").Add(int64(len(blocks) - hits))
		if csp != nil {
			csp.Int("block_hits", int64(hits)).Int("blocks", int64(len(blocks)))
		}
	}

	prog := &sc.prog
	*prog = vliw.Program{
		Arch:       arch,
		F:          cs.g,
		Blocks:     blocks,
		RegCluster: cs.pl.RegCluster,
		Blame:      blame,
	}
	maxLive, assign, ok := []int(nil), []int(nil), false
	if reuse {
		maxLive, assign, ok = cs.allocLookup(ids, arch.RegsPC())
	}
	if ok {
		obs.GetCounter("sched.delta_alloc_hits").Inc()
	} else {
		ra := regalloc.AllocateReuse(csp, prog, cs.lv, sc.RA)
		if !ra.Fits {
			if reuse {
				obs.GetCounter("sched.delta_fallbacks").Inc()
				prog.Blame = grow(&sc.blame, cs.g.NumRegs())
				for _, bl := range blames {
					addBlame(prog.Blame, bl)
				}
			}
			// The spill loop rewrites a copy of src when another compile
			// may be reading it: every kept class's, and the kernel itself.
			shared := prep != nil || cs.src == f
			return spillLoop(csp, f.Name, arch, sc, cs.src, shared, owned, capRaw, attempt{prog, ra})
		}
		if reuse {
			maxLive, assign = cs.allocInsert(ids, ra.MaxLive, ra.Assign)
		} else {
			maxLive, assign = slices.Clone(ra.MaxLive), slices.Clone(ra.Assign)
		}
	}
	res := &sc.result
	if owned {
		shell := *prog
		shell.Blocks = slices.Clone(blocks)
		prog, res = &shell, new(Result)
	}
	prog.MaxLive = maxLive
	prog.PhysAssign = assign
	*res = Result{Prog: prog, Iterations: 1}
	csp.Int("iterations", 1).Int("spilled", 0)
	return res, nil
}

// attempt is one schedule/allocate round's outcome: the scheduled
// program (blame filled in) and the allocator's verdict on it.
type attempt struct {
	prog *vliw.Program
	ra   *regalloc.Result
}

// blamed is a spill candidate with its blame count.
type blamed struct {
	r ir.Reg
	n int
}

// runRound partitions, schedules under budget cap and allocates work,
// the spill loop's rewritten copy of the lowered IR, as spill round
// iter, all of it in the round's memory (roundMem) and the allocator's
// arena: the attempt is valid until the next round through sc.
func runRound(csp *obs.Span, arch machine.Arch, sc *Scratch, work *ir.Func, iter, cap int) (attempt, error) {
	psp := csp.Child("sched.partition").Int("iter", int64(iter))
	g, pl := partitionFor(work, arch, &sc.part, &sc.round)
	psp.End()
	// After two failed greedy rounds, fall back to program-order
	// priority: a valid execution order whose pressure tracks the
	// source's depth-first evaluation, trading ILP for fit.
	inOrder := iter >= 3
	ssp := csp.Child("sched.schedule").Int("iter", int64(iter))
	// The cap stays fixed across rounds: shrinking it only multiplies
	// forced placements. In-order mode plus spilling is what converges.
	prog, lv, err := scheduleFunc(g, arch, pl, cap, inOrder, sc)
	if err != nil {
		ssp.End()
		return attempt{}, err
	}
	ssp.Int("bundles", int64(prog.BundleCount())).Int("ops", int64(prog.OpCount())).End()
	return attempt{prog, regalloc.AllocateReuse(csp, prog, lv, sc.RA)}, nil
}

// spillLoop is the schedule → allocate → spill iteration, every round
// under budget cap, over work, the architecture-lowered pre-partition
// IR, which it rewrites — a copy of it in the Scratch (workMem), when
// work is shared. at is round 1, which did not fit. The Result of the
// round that fits stays in the Scratch unless owned, when it is copied
// out (roundMem.own).
func spillLoop(csp *obs.Span, name string, arch machine.Arch, sc *Scratch, work *ir.Func, shared, owned bool, cap int, at attempt) (*Result, error) {
	spilled := 0
	sc.alreadySpilled = sc.alreadySpilled[:0]
	// The loop's copy of work, when it makes one, and the reloads and
	// stores its rounds add — about as many again — are the compile's.
	w := &sc.work
	w.rw.slab.Reset(work.Size())
	for iter := 1; iter <= MaxSpillIterations; iter++ {
		if iter > 1 {
			var err error
			if at, err = runRound(csp, arch, sc, work, iter, cap); err != nil {
				return nil, err
			}
		}
		prog, ra := at.prog, at.ra
		if ra.Fits {
			prog.Spills = spilled
			prog.MaxLive = ra.MaxLive
			prog.PhysAssign = ra.Assign
			csp.Int("iterations", int64(iter)).Int("spilled", int64(spilled))
			obs.GetHistogram("sched.spill_rounds").Observe(float64(iter - 1))
			res := &sc.result
			if owned {
				prog, res = sc.round.own(), new(Result)
			}
			*res = Result{Prog: prog, Spilled: spilled, Iterations: iter}
			return res, nil
		}
		spsp := csp.Child("sched.spill").Int("iter", int64(iter))
		// Spill candidates must exist in the pre-partition IR (ids
		// below work's register count; partitioning appends copies).
		// Prefer the registers the scheduler blamed for its pressure
		// stalls; fall back to the allocator's longest live ranges.
		victims := sc.victims[:0]
		limit := ir.Reg(work.NumRegs())
		for len(sc.alreadySpilled) < int(limit) {
			sc.alreadySpilled = append(sc.alreadySpilled, false)
		}
		alreadySpilled := sc.alreadySpilled
		// Spill decisively: re-partitioning between rounds adds ±2-3 of
		// placement noise per cluster, so small batches just oscillate.
		// Scale with the total overflow across clusters.
		want := 4
		total := 0
		for _, o := range ra.Overflow {
			total += o
		}
		if 2*total+4 > want {
			want = 2*total + 4
		}
		for _, v := range ra.Victims {
			if len(victims) >= want {
				break
			}
			if v < limit && !alreadySpilled[v] {
				victims = append(victims, v)
				alreadySpilled[v] = true
			}
		}
		byBlame := sc.byBlame[:0]
		for r, n := range prog.Blame {
			if n > 0 && ir.Reg(r) < limit && !alreadySpilled[r] &&
				r < len(prog.RegCluster) && ra.Overflow[prog.RegCluster[r]] > 0 {
				byBlame = append(byBlame, blamed{ir.Reg(r), n})
			}
		}
		sc.byBlame = byBlame[:0]
		// Most blamed first. slices.SortFunc runs the same generated
		// pdqsort as sort.Slice, comparison for comparison, so equal
		// counts keep the order sort.Slice gave them.
		slices.SortFunc(byBlame, func(a, b blamed) int { return cmp.Compare(b.n, a.n) })
		for _, bl := range byBlame {
			victims = append(victims, bl.r)
			alreadySpilled[bl.r] = true
			if len(victims) >= want {
				break
			}
		}
		sc.victims = victims[:0]
		if len(victims) == 0 {
			spsp.End()
			return nil, fmt.Errorf("sched %s on %s: pressure %v exceeds %d regs/cluster with no spillable candidates",
				name, arch, ra.MaxLive, ra.Capacity)
		}
		if shared {
			work, shared = work.CloneInto(&w.shell, &w.rw.slab), false // the first spill: work stays as it is for the others
		}
		n := w.rw.rewrite(work, victims)
		spsp.Int("victims", int64(len(victims))).Int("rewritten", int64(n)).End()
		if n == 0 {
			return nil, fmt.Errorf("sched %s on %s: spill made no progress (pressure %v)",
				name, arch, ra.MaxLive)
		}
		obs.GetCounter("sched.spill_rewritten").Add(int64(n))
		spilled += n
		// Deliberately no Clean here: CSE would merge the per-use
		// reloads back into one long-lived value and undo the spill.
	}
	obs.GetHistogram("sched.spill_rounds").Observe(MaxSpillIterations)
	return nil, fmt.Errorf("sched %s on %s after %d spill rounds: %w",
		name, arch, MaxSpillIterations, ErrNoFit)
}
