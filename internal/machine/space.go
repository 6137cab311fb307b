package machine

// The design space follows the paper's Table 4 ranges:
//
//   - ALUs a ∈ {1, 2, 4, 8, 16}
//   - IMUL-capable ALUs m ∈ {a/4, a/2}, at least 1
//   - total registers r ∈ {64, 128, 256, 512}
//   - L2 memory ports p2 ∈ {1, 2, 4}, single L1 port always
//   - L2 latency l2 ∈ {2, 4, 8} cycles, non-pipelined
//   - clusters c ∈ {1, 2, 4, 8, 16}
//
// with two sanity constraints: no more L2 ports than ALUs (p2 ≤ a), and
// at least 8 registers per ALU (r ≥ 8·a, which still admits the paper's
// register-starved pathological point (16 4 128 1 4 8)). The paper
// explored 191 architectures but does not publish the exact membership;
// this enumeration of its published ranges yields a slightly larger
// superset (the count is asserted in tests and reported in
// EXPERIMENTS.md).

var (
	aluChoices = []int{1, 2, 4, 8, 16}
	regChoices = []int{64, 128, 256, 512}
	p2Choices  = []int{1, 2, 4}
	l2Choices  = []int{2, 4, 8}
)

// mulChoices returns the IMUL counts allowed for a given ALU count:
// a/4 and a/2, at least 1, deduplicated.
func mulChoices(alus int) []int {
	lo := alus / 4
	if lo < 1 {
		lo = 1
	}
	hi := alus / 2
	if hi < 1 {
		hi = 1
	}
	if lo == hi {
		return []int{lo}
	}
	return []int{lo, hi}
}

// DesignSpace enumerates the unclustered design points (cluster count
// fixed at 1). Cluster arrangements are a second axis: the explorer
// evaluates each point under every valid cluster count (see
// ClusterArrangements) and keeps the best, as the paper does.
func DesignSpace() []Arch {
	var out []Arch
	for _, a := range aluChoices {
		for _, m := range mulChoices(a) {
			for _, r := range regChoices {
				if r < 8*a {
					continue // starvation floor: at least 8 regs/ALU
				}
				for _, p2 := range p2Choices {
					if p2 > a {
						continue // more memory ports than ALUs is wasted wiring
					}
					for _, l2 := range l2Choices {
						out = append(out, Arch{ALUs: a, MULs: m, Regs: r, L2Ports: p2, L2Lat: l2, Clusters: 1})
					}
				}
			}
		}
	}
	return out
}

// ClusterArrangements returns the valid cluster counts for a design
// point: divisors of the ALU and register counts, at most 8 clusters,
// keeping at least one ALU and sixteen registers per cluster. Both
// floors come from the paper's published results: no selected
// architecture has more than 8 clusters or fewer than 16 registers per
// cluster (the pathological (16 4 128 1 4 8) point is the minimum), and
// the paper's cluster-correction methodology was calibrated on "a few
// significant architecture data points" that never include 16 clusters.
func ClusterArrangements(a Arch) []int {
	var out []int
	for _, c := range []int{1, 2, 4, 8} {
		if c > a.ALUs {
			break
		}
		if a.ALUs%c != 0 || a.Regs%c != 0 {
			continue
		}
		if a.Regs/c < 16 {
			continue
		}
		out = append(out, c)
	}
	return out
}

// WithMinMax returns a copy with the min/max ALU repertoire extension
// (the opcode-choice axis; see EXPERIMENTS.md).
func (a Arch) WithMinMax() Arch {
	a.MinMax = true
	return a
}

// WithClusters returns a copy of the design point with the given
// cluster count.
func (a Arch) WithClusters(c int) Arch {
	a.Clusters = c
	return a
}

// FullSpace enumerates every (design point × cluster arrangement)
// combination — the complete set of concrete machines the explorer
// compiles for.
func FullSpace() []Arch {
	var out []Arch
	for _, a := range DesignSpace() {
		for _, c := range ClusterArrangements(a) {
			out = append(out, a.WithClusters(c))
		}
	}
	return out
}

// Grid resolves the grid an exploration covers: archs (nil = FullSpace)
// thinned to every sample-th machine when sample > 1, the baseline
// appended when absent (speedups are measured against it), and the
// result crossed with ops under DefaultMasks when ops is non-nil. Every
// entry point — core.Explore, the distributed coordinator, the CLIs —
// resolves its grid here, which is what keeps a distributed run's grid
// (and with it the merged run count) equal to a local run's.
func Grid(archs []Arch, sample int, ops *OpSet) []Arch {
	if archs == nil {
		archs = FullSpace()
	}
	if sample > 1 {
		var thinned []Arch
		for i := 0; i < len(archs); i += sample {
			thinned = append(thinned, archs[i])
		}
		archs = thinned
	}
	hasBaseline := false
	for _, a := range archs {
		if a == Baseline {
			hasBaseline = true
			break
		}
	}
	if !hasBaseline {
		archs = append(append([]Arch(nil), archs...), Baseline)
	}
	return CrossOps(archs, ops, DefaultMasks(ops))
}
