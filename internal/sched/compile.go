package sched

import (
	"errors"
	"fmt"
	"sort"

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
// regalloc, spill) recorded as telemetry spans nested under sp.
func CompileSpan(sp *obs.Span, prepared *ir.Func, arch machine.Arch) (*Result, error) {
	prep := NewPrepared(prepared)
	prep.oneShot = true
	return CompilePrepared(sp, prep, arch, nil)
}

// CompilePrepared compiles a shared Prepared kernel for one
// architecture from nothing: no delta cache is read or written, only the
// kernel's cached dependence skeletons (per L2 latency class) and the
// caller's Scratch arena are reused. prep may be shared across
// concurrent workers; sc may not (pass nil to borrow one for the call).
// The prepared IR is not mutated, and the Result owns its memory.
func CompilePrepared(sp *obs.Span, prep *Prepared, arch machine.Arch, sc *Scratch) (*Result, error) {
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	csp := obs.Under(sp, "sched")
	if csp != nil {
		csp.Str("kernel", prep.F.Name).Str("arch", arch.String())
	}
	defer csp.End()
	if sc == nil {
		sc = GetScratch()
		defer PutScratch(sc)
	}
	work := prep.F
	if arch.Clusters <= 1 || rewritesISA(arch) {
		work = lowerFor(prep.F, arch)
	}
	return spillLoop(csp, prep, arch, sc, work, nil)
}

// rewritesISA reports whether lowerFor changes the instruction stream
// for arch, beyond copying it.
func rewritesISA(arch machine.Arch) bool { return !arch.Ops.Empty() || arch.MinMax }

// lowerFor returns a private copy of the prepared kernel with the
// architecture's instruction-set rewrites applied: custom-op fusion and
// min/max fusion. It is the IR the partitioner reads and the spill loop
// rewrites. A clustered machine with neither rewrite needs no copy to
// start with: partitionClone only reads what it partitions, so
// CompilePrepared hands the spill loop the shared kernel itself, and the
// loop takes its copy when it first has something to write (a single
// cluster is partitioned in place, and always needs one).
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

// runRound partitions, schedules and allocates work as round iter of
// the spill loop.
func runRound(csp *obs.Span, prep *Prepared, arch machine.Arch, sc *Scratch, work *ir.Func, iter int) (attempt, error) {
	var g *ir.Func
	psp := csp.Child("sched.partition").Int("iter", int64(iter))
	var pl *Placement
	singleCluster := arch.Clusters <= 1
	if singleCluster {
		// Partitioning a single-cluster machine only stamps cluster
		// 0 on every instruction — idempotent, so the work copy is
		// scheduled in place with no per-iteration clone at all.
		g = work
		pl = partition(g, g, nil, arch, &sc.part)
	} else {
		// Clustered machines rewrite the instruction stream (copy
		// insertion, operand localization), so partitioning clones:
		// one fused pass instead of Clone followed by Partition.
		g, pl = partitionClone(work, arch, &sc.part)
	}
	psp.End()
	// The cached skeletons describe prep.F's pristine blocks, so they
	// apply only while work is instruction-identical to them: single
	// cluster (partitioning inserts no copies), no min/max or custom-op
	// fusion, and no spill rewrites yet. A Prepared made for this one
	// compile has nobody to keep copies for: its blocks are scheduled
	// from the builder's own skeleton, like every other round's.
	var skels []*ddg.Skeleton
	if singleCluster && !rewritesISA(arch) && iter == 1 && !prep.oneShot {
		skels = prep.skeletons(arch, &sc.skel)
	}
	// After two failed greedy rounds, fall back to program-order
	// priority: a valid execution order whose pressure tracks the
	// source's depth-first evaluation, trading ILP for fit.
	inOrder := iter >= 3
	ssp := csp.Child("sched.schedule").Int("iter", int64(iter))
	// The cap stays fixed across rounds: shrinking it only multiplies
	// forced placements. In-order mode plus spilling is what converges.
	prog, lv, err := scheduleFunc(g, arch, pl, arch.RegsPC()-pressureReserve, inOrder, skels, sc)
	if err != nil {
		ssp.End()
		return attempt{}, err
	}
	ssp.Int("bundles", int64(prog.BundleCount())).Int("ops", int64(prog.OpCount())).End()
	return attempt{prog, regalloc.AllocateWith(csp, prog, lv, sc.RA)}, nil
}

// spillLoop is the schedule → allocate → spill iteration over work, the
// architecture-lowered pre-partition IR, which it rewrites — a copy of
// it, when work is the shared prep.F (see lowerFor). first,
// when non-nil, is round 1 already run on an instruction-identical copy
// of work — the delta compiler's attempt, whose allocation did not fit —
// and the loop continues from it instead of repeating the round.
func spillLoop(csp *obs.Span, prep *Prepared, arch machine.Arch, sc *Scratch, work *ir.Func, first *attempt) (*Result, error) {
	spilled := 0
	sc.alreadySpilled = sc.alreadySpilled[:0]
	for iter := 1; iter <= MaxSpillIterations; iter++ {
		var at attempt
		if iter == 1 && first != nil {
			at = *first
		} else {
			var err error
			if at, err = runRound(csp, prep, arch, sc, work, iter); err != nil {
				return nil, err
			}
		}
		prog, ra := at.prog, at.ra
		if ra.Fits {
			prog.Spills = spilled
			prog.MaxLive = ra.MaxLive
			prog.PhysAssign = ra.Assign
			csp.Int("iterations", int64(iter)).Int("spilled", int64(spilled))
			if iter > 1 {
				obs.GetHistogram("sched.spill_rounds").Observe(float64(iter - 1))
			}
			return &Result{Prog: prog, Spilled: spilled, Iterations: iter}, nil
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
		sort.Slice(byBlame, func(i, j int) bool { return byBlame[i].n > byBlame[j].n })
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
				prep.F.Name, arch, ra.MaxLive, ra.Capacity)
		}
		if work == prep.F {
			work = work.Clone() // the first spill: prep.F is shared, and stays as it is
		}
		n := SpillRewrite(work, victims)
		spsp.Int("victims", int64(len(victims))).Int("rewritten", int64(n)).End()
		if n == 0 {
			return nil, fmt.Errorf("sched %s on %s: spill made no progress (pressure %v)",
				prep.F.Name, arch, ra.MaxLive)
		}
		obs.GetCounter("sched.spill_rewritten").Add(int64(n))
		spilled += n
		// Deliberately no Clean here: CSE would merge the per-use
		// reloads back into one long-lived value and undo the spill.
	}
	obs.GetHistogram("sched.spill_rounds").Observe(MaxSpillIterations)
	return nil, fmt.Errorf("sched %s on %s after %d spill rounds: %w",
		prep.F.Name, arch, MaxSpillIterations, ErrNoFit)
}
