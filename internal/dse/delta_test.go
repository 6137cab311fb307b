package dse

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/machine"
	"customfit/internal/obs"
	"customfit/internal/sched"
	"customfit/internal/search"
)

// TestDeltaNeighborWalksBitIdentical is the delta-compilation property
// test: random neighbor walks — the exact move set the stochastic
// search strategies use (search.Neighbors) — evaluated with delta
// compilation enabled must be bit-identical to a fresh full evaluation
// of every visited architecture. Two walkers per kernel share one
// delta-enabled evaluator, so under -race this also exercises
// concurrent access to the per-kernel delta caches (block-schedule
// ring, allocation memo, partition-class state construction). The
// walks rarely meet a cell that spills, so deltaSpillingCells then
// compares those directly.
func TestDeltaNeighborWalksBitIdentical(t *testing.T) {
	space := machine.FullSpace()
	inSpace := make(map[machine.Arch]bool, len(space))
	for _, a := range space {
		inSpace[a] = true
	}

	// Both evaluators skip signature memoization so every step compares
	// real compiles: the delta path on one side, the full driver on the
	// other.
	delta := NewEvaluator()
	delta.Width = 32
	delta.DisableMemo = true
	fresh := NewEvaluator()
	fresh.Width = 32
	fresh.DisableMemo = true
	fresh.DisableDelta = true

	// Full kernel sweep with long walks normally; under the race
	// detector (or -short) shrink to two kernels and shorter walks. The
	// delta caches are per-kernel, so race coverage needs concurrent
	// walkers on a shared kernel — not the whole suite — and race
	// instrumentation makes compiles minutes-slow.
	kernels := bench.All()
	steps := 6
	if raceEnabled || testing.Short() {
		kernels = kernels[:2]
		steps = 2
	}
	const walkers = 2

	var wg sync.WaitGroup
	errs := make(chan error, len(kernels)*walkers)
	for bi, bm := range kernels {
		for w := 0; w < walkers; w++ {
			wg.Add(1)
			go func(bm *bench.Benchmark, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				cur := space[rng.Intn(len(space))]
				sc := sched.NewScratch()
				for s := 0; s < steps; s++ {
					got := delta.EvaluateScratch(bm, cur, sc)
					want := fresh.Evaluate(bm, cur)
					if got != want {
						errs <- fmt.Errorf("%s step %d arch %+v: delta %+v != fresh %+v",
							bm.Name, s, cur, got, want)
						return
					}
					ns := search.Neighbors(cur, inSpace)
					if len(ns) == 0 {
						break
					}
					cur = ns[rng.Intn(len(ns))]
				}
			}(bm, int64(1000*bi+w))
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	deltaSpillingCells(t, fresh, kernels)
}

// progText renders everything a compile decides: per block the length,
// the forced placements and every op with its cycle and clusters, then
// the allocation.
func progText(res *sched.Result) string {
	var sb strings.Builder
	p := res.Prog
	fmt.Fprintf(&sb, "iterations %d spilled %d spills %d maxlive %v assign %v\n",
		res.Iterations, res.Spilled, p.Spills, p.MaxLive, p.PhysAssign)
	for _, blk := range p.Blocks {
		fmt.Fprintf(&sb, "%s: len %d forced %d peak %v\n", blk.IR.Name, blk.Len, blk.Forced, blk.SchedPeak)
		for _, op := range blk.Ops {
			fmt.Fprintf(&sb, "  %d c%d s%d %s\n", op.Cycle, op.Cluster, op.SrcCluster, op.Instr)
		}
	}
	return sb.String()
}

// deltaSpillingCells covers what the neighbor walks rarely reach: cells
// whose first allocation does not fit, where CompilePreparedDelta hands
// its attempt to the spill loop as round 1. On two register-starved
// machines at unroll 2 and 4 the delta compile — on an empty cache, then
// again with every block of round 1 (and its blame) served from the
// cache — must equal sched.CompilePrepared in everything it decides,
// Iterations and Spilled included, and must list-schedule exactly the
// blocks the cold driver does, minus the round the cache answered:
// no round is ever run twice.
func deltaSpillingCells(t *testing.T, ev *Evaluator, kernels []*bench.Benchmark) {
	col := obs.NewCollector()
	obs.Install(col)
	defer obs.Install(nil)
	scheduled := col.Counter("sched.blocks_scheduled")
	counting := func(compile func() (*sched.Result, error)) (string, int64) {
		before := scheduled.Value()
		res, err := compile()
		n := scheduled.Value() - before
		if err != nil {
			return "error: " + err.Error(), n
		}
		return progText(res), n
	}
	archs := []machine.Arch{
		machine.Baseline,
		{ALUs: 8, MULs: 2, Regs: 128, L2Ports: 1, L2Lat: 8, Clusters: 4},
	}
	spillRounds := 0
	for _, bm := range kernels {
		for _, u := range []int{2, 4} {
			p := ev.prepare(nil, bm, u)
			if p.err != nil {
				continue // unroll limit of this kernel
			}
			for _, arch := range archs {
				// A Prepared of its own: an empty delta cache.
				prep := sched.NewPrepared(p.kernel.F)
				sc := sched.NewScratch()
				want, cold := counting(func() (*sched.Result, error) { return sched.CompilePrepared(nil, prep, arch, nil) })
				first, n1 := counting(func() (*sched.Result, error) { return sched.CompilePreparedDelta(nil, prep, arch, sc) })
				again, n2 := counting(func() (*sched.Result, error) { return sched.CompilePreparedDelta(nil, prep, arch, sc) })
				where := fmt.Sprintf("%s u=%d %s", bm.Name, u, arch)
				if first != want {
					t.Errorf("%s: delta compile on an empty cache differs from CompilePrepared\n--- delta\n%s--- cold\n%s", where, first, want)
				}
				if again != want {
					t.Errorf("%s: delta compile on a warm cache differs from CompilePrepared\n--- delta\n%s--- cold\n%s", where, again, want)
				}
				blocks := int64(len(p.kernel.F.Blocks))
				if n1 != cold || n2 != cold-blocks {
					t.Errorf("%s: scheduled %d blocks cold, %d through an empty delta cache (want %d), %d through a warm one (want %d)",
						where, cold, n1, cold, n2, cold-blocks)
				}
				if cold > blocks {
					spillRounds++
				}
			}
		}
	}
	if spillRounds == 0 {
		t.Error("no cell needed a second round: the handoff was never exercised")
	}
}

// deltaNeighborRing is a one-parameter neighbor ring around a midsize
// single-cluster machine: each member differs from the base in exactly
// one template parameter, the move shape stochastic search produces.
// Shared by the steady-state allocation pin and BenchmarkEvaluateDelta.
func deltaNeighborRing() []machine.Arch {
	base := machine.Arch{ALUs: 8, MULs: 2, Regs: 256, L2Ports: 2, L2Lat: 4, Clusters: 1}
	ring := []machine.Arch{base, base, base, base, base}
	ring[1].Regs = 512
	ring[2].L2Lat = 2
	ring[3].L2Ports = 1
	ring[4].MULs = 4
	return ring
}

// TestDeltaSteadyStateAllocs pins the steady-state allocation count of
// delta-compiled neighbor re-evaluation: once the per-kernel caches are
// warm, cycling through a one-parameter neighbor ring must run
// allocation-free — the arenas in sched.Scratch and regalloc.Scratch
// absorb everything sized by the kernel or the architecture.
func TestDeltaSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation accounting")
	}
	sc := sched.NewScratch()
	if avg := ringAllocs(t, func(ev *Evaluator, bm *bench.Benchmark, a machine.Arch) Evaluation {
		return ev.EvaluateScratch(bm, a, sc)
	}); avg != 0 {
		t.Errorf("steady-state neighbor re-evaluation allocates %.1f allocs/op, want 0", avg)
	}
}

// TestEvaluateWithoutArenaAllocs is the same ring through Evaluate,
// which hands the backend no arena — the path cfp-search and
// core.SearchCompare take: each sweep borrows one from the idle list
// and gives it back, and a warm neighbor move still allocates nothing
// beyond the list's occasional ageing sentinel.
func TestEvaluateWithoutArenaAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation accounting")
	}
	if avg := ringAllocs(t, (*Evaluator).Evaluate); avg > 1 {
		t.Errorf("steady-state neighbor re-evaluation without an arena allocates %.1f allocs/op, want <= 1", avg)
	}
}

// ringAllocs warms a delta-compiling evaluator on deltaNeighborRing with
// eval, then returns what eval allocates per move around the ring.
func ringAllocs(t *testing.T, eval func(*Evaluator, *bench.Benchmark, machine.Arch) Evaluation) float64 {
	ev := NewEvaluator()
	ev.Width = 48
	ev.DisableMemo = true
	bm := bench.ByName("G")
	ring := deltaNeighborRing()
	for r := 0; r < 2; r++ {
		for _, a := range ring {
			if got := eval(ev, bm, a); got.Failed {
				t.Fatalf("warmup compile failed for %+v", a)
			}
		}
	}
	i := 0
	return testing.AllocsPerRun(50, func() {
		eval(ev, bm, ring[i%len(ring)])
		i++
	})
}
