// Package search implements design-space search strategies over the
// architecture space and measures their effectiveness, answering the
// paper's third question ("How effective are search methods aimed at
// finding the appropriate architecture?"). The paper searched
// exhaustively and conjectured that "any good search technique could
// cut down significantly on processing time without greatly affecting
// the results"; this package quantifies that: each strategy reports how
// many evaluations it spent and how close it came to the exhaustive
// optimum.
package search

import (
	"context"
	"math"
	"math/rand"

	"customfit/internal/machine"
	"customfit/internal/obs"
)

// Objective scores an architecture; higher is better. Strategies
// receive it wrapped in a counting evaluator. A typical objective is a
// benchmark's speedup, or speedup under a cost cap (-Inf when over
// budget).
type Objective func(machine.Arch) float64

// Bound is an admissible upper bound on an Objective: Bound(a) ≥
// Objective(a) for every a, computed much more cheaply (for speedup
// objectives, from sched.LowerBound's no-compile cycle bound). A
// strategy that skips a whose Bound(a) ≤ incumbent cannot change its
// result, because incumbents only advance on strict improvement.
type Bound func(machine.Arch) float64

// Result reports one strategy's outcome.
type Result struct {
	Strategy    string
	Best        machine.Arch
	BestScore   float64
	Evaluations int
	// Pruned counts candidate evaluations skipped because the bound
	// proved they could not beat the incumbent (zero without a Bound).
	Pruned int
	// Optimality is BestScore / exhaustive optimum (filled by Compare).
	Optimality float64
}

// counter wraps an objective with memoized evaluation counting and
// optional bound-guided pruning.
type counter struct {
	obj    Objective
	bound  Bound
	seen   map[machine.Arch]float64
	evals  int
	pruned int
}

func newCounter(obj Objective) *counter {
	return &counter{obj: obj, seen: map[machine.Arch]float64{}}
}

func (c *counter) eval(a machine.Arch) float64 {
	if v, ok := c.seen[a]; ok {
		return v
	}
	c.evals++
	v := c.obj(a)
	c.seen[a] = v
	return v
}

// cutoff reports whether a can be skipped against the incumbent score:
// true when the bound proves obj(a) ≤ incumbent, so evaluating a could
// not improve on it. Already-evaluated points are never "pruned" (the
// memoized value is free).
func (c *counter) cutoff(a machine.Arch, incumbent float64) bool {
	if c.bound == nil || math.IsInf(incumbent, -1) {
		return false
	}
	if _, ok := c.seen[a]; ok {
		return false
	}
	if c.bound(a) > incumbent {
		return false
	}
	c.pruned++
	obs.GetCounter("search.pruned").Inc()
	return true
}

// ExhaustiveCtx evaluates every point (the paper's method). A non-nil
// bound prunes: points the admissible bound proves cannot beat the
// incumbent are skipped without evaluation. With an admissible bound
// the returned Best and BestScore are identical to the unbounded
// search's — the incumbent only advances on strict improvement, which a
// pruned point cannot provide — while Evaluations drops by exactly
// Pruned. Cancellation is observed before each candidate evaluation; a
// cancelled search stops promptly and returns the best point seen so
// far together with the context's error.
func ExhaustiveCtx(ctx context.Context, space []machine.Arch, obj Objective, bound Bound) (Result, error) {
	c := newCounter(obj)
	c.bound = bound
	var err error
	best, bestScore := machine.Arch{}, math.Inf(-1)
	for _, a := range space {
		if err = ctx.Err(); err != nil {
			break
		}
		if c.cutoff(a, bestScore) {
			continue
		}
		if v := c.eval(a); v > bestScore {
			best, bestScore = a, v
		}
	}
	return Result{Strategy: "exhaustive", Best: best, BestScore: bestScore, Evaluations: c.evals, Pruned: c.pruned}, err
}

// Neighbors returns the architectures one parameter step away from a
// (plus the compound widen moves the climbers use), restricted to
// points present in the space — the move set of every stochastic
// strategy, exported so equivalence tests can replay exactly the walks
// a search would take (the delta-evaluation property test drives it).
func Neighbors(a machine.Arch, inSpace map[machine.Arch]bool) []machine.Arch {
	var out []machine.Arch
	push := func(n machine.Arch) {
		if inSpace[n] {
			out = append(out, n)
		}
	}
	for _, f := range []func(machine.Arch, int) machine.Arch{
		func(x machine.Arch, d int) machine.Arch { x.ALUs = scale(x.ALUs, d); x.MULs = clampMul(x); return x },
		func(x machine.Arch, d int) machine.Arch { x.MULs = scale(x.MULs, d); return x },
		func(x machine.Arch, d int) machine.Arch { x.Regs = scale(x.Regs, d); return x },
		func(x machine.Arch, d int) machine.Arch { x.L2Ports = scale(x.L2Ports, d); return x },
		func(x machine.Arch, d int) machine.Arch { x.L2Lat = scale(x.L2Lat, d); return x },
		func(x machine.Arch, d int) machine.Arch { x.Clusters = scale(x.Clusters, d); return x },
		// Compound move: widen/narrow the machine at constant per-cluster
		// shape (ALUs and clusters together). Single-axis ALU moves pay
		// the quadratic cycle-time penalty before clustering can recoup
		// it, leaving a ridge that traps ±1-axis local search.
		func(x machine.Arch, d int) machine.Arch {
			x.ALUs = scale(x.ALUs, d)
			x.Clusters = scale(x.Clusters, d)
			x.MULs = clampMul(x)
			return x
		},
		// And the register-file analog: more clusters with the same
		// per-cluster register count.
		func(x machine.Arch, d int) machine.Arch {
			x.ALUs = scale(x.ALUs, d)
			x.Clusters = scale(x.Clusters, d)
			x.Regs = scale(x.Regs, d)
			x.MULs = clampMul(x)
			return x
		},
	} {
		push(f(a, +1))
		push(f(a, -1))
	}
	return out
}

// NeighborsOps is Neighbors extended with the op-set axis: one toggle
// move per op in the space's catalog (enable it if disabled, disable it
// if enabled), each a one-parameter neighbor exactly like the scale
// moves. A nil set returns Neighbors unchanged, so op-free searches
// keep their historical move lists (and hence their RNG streams)
// bit-identical.
func NeighborsOps(a machine.Arch, inSpace map[machine.Arch]bool, set *machine.OpSet) []machine.Arch {
	out := Neighbors(a, inSpace)
	if set == nil {
		return out
	}
	for i := 0; i < set.Len(); i++ {
		// a.Ops.Mask is 0 for the plain point in an op-crossed space, so
		// toggling grows the mask from the space-level catalog even there.
		n := a.WithOps(set, a.Ops.Mask^(1<<uint(i)))
		if inSpace[n] {
			out = append(out, n)
		}
	}
	return out
}

// opCatalog returns the custom-op catalog an op-crossed space draws
// from (nil for op-free spaces). Grids cross one shared catalog
// (machine.CrossOps), so the first populated config identifies it.
func opCatalog(space []machine.Arch) *machine.OpSet {
	for _, a := range space {
		if a.Ops.Set != nil {
			return a.Ops.Set
		}
	}
	return nil
}

func scale(v, dir int) int {
	if dir > 0 {
		return v * 2
	}
	return v / 2
}

// clampMul snaps the multiplier count into the template's legal band
// [a/4, a/2] (floor 1) after an ALU-count move, choosing the nearer
// endpoint so moves stay inside the enumerated space.
func clampMul(a machine.Arch) int {
	lo, hi := a.ALUs/4, a.ALUs/2
	if lo < 1 {
		lo = 1
	}
	if hi < 1 {
		hi = 1
	}
	m := a.MULs
	if m < lo {
		return lo
	}
	if m > hi {
		return hi
	}
	return m
}

// HillClimbCtx runs steepest-ascent hill climbing with random restarts.
// A non-nil bound prunes neighbor evaluations: a neighbor whose bound
// cannot exceed the current score is skipped. Exact for steepest ascent
// — a pruned neighbor could not have been an improving move, so the
// climb trajectory (and the RNG stream, which pruning never touches) is
// unchanged. The context is checked before the restart point and every
// neighbor evaluation; a cancelled climb returns the best point reached
// so far plus the context's error, and the checks never touch the RNG
// stream either.
func HillClimbCtx(ctx context.Context, space []machine.Arch, obj Objective, restarts int, seed int64, bound Bound) (Result, error) {
	c := newCounter(obj)
	c.bound = bound
	rng := rand.New(rand.NewSource(seed))
	inSpace := spaceSet(space)
	opSet := opCatalog(space)
	var err error
	best, bestScore := machine.Arch{}, math.Inf(-1)
climb:
	for r := 0; r < restarts; r++ {
		if err = ctx.Err(); err != nil {
			break
		}
		// Restart points are always evaluated: the climb needs a concrete
		// starting score, and a bound on the start says nothing about the
		// points the climb can reach.
		cur := space[rng.Intn(len(space))]
		curScore := c.eval(cur)
		for {
			improved := false
			for _, n := range NeighborsOps(cur, inSpace, opSet) {
				if err = ctx.Err(); err != nil {
					if curScore > bestScore {
						best, bestScore = cur, curScore
					}
					break climb
				}
				if c.cutoff(n, curScore) {
					continue
				}
				if v := c.eval(n); v > curScore {
					cur, curScore = n, v
					improved = true
				}
			}
			if !improved {
				break
			}
		}
		if curScore > bestScore {
			best, bestScore = cur, curScore
		}
	}
	return Result{Strategy: "hill-climb", Best: best, BestScore: bestScore, Evaluations: c.evals, Pruned: c.pruned}, err
}

// AnnealCtx runs simulated annealing, checking the context once per
// step. A cancelled anneal returns the best point seen so far plus the
// context's error (the RNG stream is untouched by the checks).
func AnnealCtx(ctx context.Context, space []machine.Arch, obj Objective, steps int, seed int64) (Result, error) {
	c := newCounter(obj)
	rng := rand.New(rand.NewSource(seed))
	inSpace := spaceSet(space)
	opSet := opCatalog(space)
	pick := func() (machine.Arch, float64) {
		// Resample until a feasible start (objectives return -Inf for
		// over-budget points); give up after a bounded number of tries.
		for i := 0; i < 64; i++ {
			a := space[rng.Intn(len(space))]
			if v := c.eval(a); !math.IsInf(v, -1) {
				return a, v
			}
		}
		a := space[rng.Intn(len(space))]
		return a, c.eval(a)
	}
	cur, curScore := pick()
	best, bestScore := cur, curScore
	t0 := 2.0
	var err error
	for i := 0; i < steps; i++ {
		if err = ctx.Err(); err != nil {
			break
		}
		temp := t0 * math.Exp(-3*float64(i)/float64(steps))
		ns := NeighborsOps(cur, inSpace, opSet)
		if len(ns) == 0 || math.IsInf(curScore, -1) {
			cur, curScore = pick()
			continue
		}
		n := ns[rng.Intn(len(ns))]
		v := c.eval(n)
		if v > curScore || (!math.IsInf(v, -1) && rng.Float64() < math.Exp((v-curScore)/math.Max(temp, 1e-6))) {
			cur, curScore = n, v
		}
		if curScore > bestScore {
			best, bestScore = cur, curScore
		}
	}
	return Result{Strategy: "anneal", Best: best, BestScore: bestScore, Evaluations: c.evals}, err
}

// GeneticCtx runs a small generational GA with tournament selection,
// parameter-wise crossover and step mutation, checking the context once
// per generation. A cancelled run returns the best individual bred so
// far plus the context's error.
func GeneticCtx(ctx context.Context, space []machine.Arch, obj Objective, generations, popSize int, seed int64) (Result, error) {
	c := newCounter(obj)
	rng := rand.New(rand.NewSource(seed))
	inSpace := spaceSet(space)
	opSet := opCatalog(space)
	pop := make([]machine.Arch, popSize)
	for i := range pop {
		pop[i] = space[rng.Intn(len(space))]
	}
	score := func(a machine.Arch) float64 { return c.eval(a) }
	tournament := func() machine.Arch {
		a, b := pop[rng.Intn(len(pop))], pop[rng.Intn(len(pop))]
		if score(a) >= score(b) {
			return a
		}
		return b
	}
	crossover := func(a, b machine.Arch) machine.Arch {
		ch := a
		if rng.Intn(2) == 0 {
			ch.ALUs, ch.MULs = b.ALUs, b.MULs
		}
		if rng.Intn(2) == 0 {
			ch.Regs = b.Regs
		}
		if rng.Intn(2) == 0 {
			ch.L2Ports, ch.L2Lat = b.L2Ports, b.L2Lat
		}
		if rng.Intn(2) == 0 {
			ch.Clusters = b.Clusters
		}
		// The ops draw is gated on the space carrying an op axis at all,
		// so op-free populations draw exactly the historical four Intn
		// calls per child and their RNG streams stay bit-identical.
		if opSet != nil && rng.Intn(2) == 0 {
			ch = ch.WithOps(opSet, b.Ops.Mask)
		}
		return ch
	}
	repair := func(a machine.Arch) (machine.Arch, bool) {
		if inSpace[a] {
			return a, true
		}
		// Nudge toward validity via neighbors of a valid parent.
		return a, false
	}
	best, bestScore := machine.Arch{}, math.Inf(-1)
	var err error
	for g := 0; g < generations; g++ {
		if err = ctx.Err(); err != nil {
			break
		}
		next := make([]machine.Arch, 0, popSize)
		for len(next) < popSize {
			child := crossover(tournament(), tournament())
			if rng.Float64() < 0.3 {
				ns := NeighborsOps(child, inSpace, opSet)
				if len(ns) > 0 {
					child = ns[rng.Intn(len(ns))]
				}
			}
			if ok := inSpace[child]; !ok {
				if rep, okRep := repair(child); okRep {
					child = rep
				} else {
					child = space[rng.Intn(len(space))]
				}
			}
			next = append(next, child)
		}
		pop = next
		for _, a := range pop {
			if v := score(a); v > bestScore {
				best, bestScore = a, v
			}
		}
	}
	return Result{Strategy: "genetic", Best: best, BestScore: bestScore, Evaluations: c.evals}, err
}

func spaceSet(space []machine.Arch) map[machine.Arch]bool {
	m := make(map[machine.Arch]bool, len(space))
	for _, a := range space {
		m[a] = true
	}
	return m
}

// CompareCtx runs every strategy against the same objective and
// normalizes scores to the exhaustive optimum. With a non-nil admissible
// bound the deterministic strategies (exhaustive, hill climbing) prune
// candidates the bound rules out, reporting how many evaluations that
// saved. The stochastic strategies (annealing, genetic) run unpruned —
// their trajectories depend on the values of non-improving moves, so
// pruning would change their results rather than just their cost. The
// strategies run in sequence; cancellation stops the in-flight strategy
// promptly and skips the rest, returning whatever completed (with
// Optimality normalized to the possibly-partial exhaustive score)
// alongside the context's error.
func CompareCtx(ctx context.Context, space []machine.Arch, obj Objective, bound Bound, seed int64) ([]Result, error) {
	ex, err := ExhaustiveCtx(ctx, space, obj, bound)
	out := []Result{ex}
	if err == nil {
		var hc Result
		hc, err = HillClimbCtx(ctx, space, obj, 4, seed, bound)
		out = append(out, hc)
	}
	if err == nil {
		var an Result
		an, err = AnnealCtx(ctx, space, obj, len(space)/3, seed)
		out = append(out, an)
	}
	if err == nil {
		var ga Result
		ga, err = GeneticCtx(ctx, space, obj, 8, 12, seed)
		out = append(out, ga)
	}
	for i := range out {
		if ex.BestScore != 0 {
			out[i].Optimality = out[i].BestScore / ex.BestScore
		}
	}
	return out, err
}

// SubLattice returns a dense, neighbor-closed subset of the design
// space for quick search experiments: every axis keeps a contiguous run
// of its values, so the ±1-step neighborhood structure the local
// strategies rely on is intact (a strided sample of the full space
// leaves almost every neighbor missing and starves hill climbing and
// annealing of moves).
func SubLattice() []machine.Arch {
	var out []machine.Arch
	for _, a := range []int{2, 4, 8, 16} {
		m := a / 4
		if m < 1 {
			m = 1
		}
		for _, r := range []int{128, 256, 512} {
			if r < 8*a {
				continue
			}
			for _, p2 := range []int{1, 2, 4} {
				if p2 > a {
					continue
				}
				for _, l2 := range []int{2, 4} {
					for _, c := range []int{1, 2, 4} {
						arch := machine.Arch{ALUs: a, MULs: m, Regs: r, L2Ports: p2, L2Lat: l2, Clusters: c}
						if arch.Validate() != nil || arch.RegsPC() < 16 || c > a {
							continue
						}
						out = append(out, arch)
					}
				}
			}
		}
	}
	return out
}
