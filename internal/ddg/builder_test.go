package ddg_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/ddg"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/opt"
	"customfit/internal/sched"
)

// Builder against the construction it replaced (reference_test.go): the
// same edges in the same order, the same predecessor counts and heights,
// whatever the builder built before.

// rankInvariant holds a skeleton to what the scheduler's ready set
// stands on (sched.readySet): every edge runs forward in program order
// at a distance that is not negative, so its head is no taller than its
// tail and, ranked by descending height with ties to program order — or
// by program order alone — comes after it: rank[to] > rank[from].
func rankInvariant(sk *ddg.Skeleton) error {
	for i := range sk.Heights {
		for _, e := range sk.Succs(i) {
			if e.MinDelta < 0 || int(e.To) <= i || sk.Heights[e.To] > sk.Heights[i] {
				return fmt.Errorf("edge %d -> %+v between heights %d and %d: a successor could outrank its predecessor",
					i, e, sk.Heights[i], sk.Heights[e.To])
			}
		}
	}
	return nil
}

// diff reports the first difference between a built skeleton and the
// reference's, or a breach of the rank invariant, or nil.
func diff(got *ddg.Skeleton, want *ddg.RefSkeleton) error {
	n := len(want.Succs)
	if len(got.NPreds) != n || len(got.Heights) != n {
		return fmt.Errorf("%d/%d predecessor counts/heights for %d instructions", len(got.NPreds), len(got.Heights), n)
	}
	if err := rankInvariant(got); err != nil {
		return err
	}
	if got.HasTerm != want.HasTerm {
		return fmt.Errorf("HasTerm = %v, want %v", got.HasTerm, want.HasTerm)
	}
	for i := 0; i < n; i++ {
		succs := got.Succs(i)
		if len(succs) != len(want.Succs[i]) {
			return fmt.Errorf("instruction %d: edges %v, want %v", i, succs, want.Succs[i])
		}
		for k, e := range succs {
			if e != want.Succs[i][k] {
				return fmt.Errorf("instruction %d edge %d: %+v, want %+v", i, k, e, want.Succs[i][k])
			}
		}
		if got.NPreds[i] != want.NPreds[i] || got.Heights[i] != want.Heights[i] {
			return fmt.Errorf("instruction %d: %d preds, height %d; want %d, %d",
				i, got.NPreds[i], got.Heights[i], want.NPreds[i], want.Heights[i])
		}
	}
	return nil
}

// latencyClasses are the machines a skeleton can differ between: the
// dependence rules read the Level-2 latency and nothing else.
func latencyClasses() []machine.Arch {
	var out []machine.Arch
	for _, l2 := range []int{2, 4, 8} {
		a := machine.Baseline
		a.L2Lat = l2
		out = append(out, a)
	}
	return out
}

// spillVictims picks up to n distinct registers read in f's largest
// block, the ones a spill round would go for.
func spillVictims(f *ir.Func, rng *rand.Rand, n int) []ir.Reg {
	var hot *ir.Block
	for _, b := range f.Blocks {
		if hot == nil || len(b.Instrs) > len(hot.Instrs) {
			hot = b
		}
	}
	seen := map[ir.Reg]bool{}
	var regs []ir.Reg
	for _, in := range hot.Instrs {
		for _, r := range in.Uses(nil) {
			if !seen[r] {
				seen[r] = true
				regs = append(regs, r)
			}
		}
	}
	rng.Shuffle(len(regs), func(i, j int) { regs[i], regs[j] = regs[j], regs[i] })
	if len(regs) > n {
		regs = regs[:n]
	}
	return regs
}

// TestBuilderMatchesReference runs one Builder over every block the
// backend ever hands it — the 11 kernels at four unroll factors,
// pristine, partitioned for 4 and 8 clusters, after one to three rounds
// of spill rewriting (where the constant-address index does its work)
// and partitioned after those — under the three latency classes, in
// shuffled order. Each block is built, then built again after another
// one: what a build leaves in the arrays must not show in the next.
func TestBuilderMatchesReference(t *testing.T) {
	unrolls := []int{1, 2, 4, 8}
	if testing.Short() {
		unrolls = []int{1, 4}
	}
	clustered := []machine.Arch{
		{ALUs: 8, MULs: 2, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 4},
		{ALUs: 16, MULs: 4, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 8},
	}
	type item struct {
		what string
		b    *ir.Block
		arch machine.Arch
	}
	var items []item
	collect := func(what string, f *ir.Func) {
		for _, b := range f.Blocks {
			for _, a := range latencyClasses() {
				items = append(items, item{fmt.Sprintf("%s/%s l2=%d", what, b.Name, a.L2Lat), b, a})
			}
		}
	}
	rng := rand.New(rand.NewSource(17))
	for _, bm := range bench.All() {
		fn, err := bm.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range unrolls {
			g, err := opt.Prepare(fn, u)
			if err != nil {
				if u == 1 {
					t.Fatal(err)
				}
				continue // the big jams outgrow the unroller's budget, as they do for the explorer
			}
			name := fmt.Sprintf("%s u=%d", bm.Name, u)
			collect(name, g)
			for _, a := range clustered {
				pg, _ := sched.PartitionClone(g, a)
				collect(fmt.Sprintf("%s %d clusters", name, a.Clusters), pg)
			}
			work := g.Clone()
			for round := 1; round <= 3; round++ {
				if sched.SpillRewrite(work, spillVictims(work, rng, 8)) == 0 {
					t.Fatalf("%s: spill round %d rewrote nothing", name, round)
				}
				// The next round rewrites work's instructions in place.
				collect(fmt.Sprintf("%s spilled x%d", name, round), work.Clone())
			}
			pg, _ := sched.PartitionClone(work, clustered[0])
			collect(name+" spilled, 4 clusters", pg)
		}
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })

	var bd ddg.Builder
	check := func(it item) {
		if err := diff(bd.Build(it.b, it.arch), ddg.ReferenceSkeleton(it.b, it.arch)); err != nil {
			t.Fatalf("%s: %v", it.what, err)
		}
	}
	for k, it := range items {
		check(it)
		if k > 0 {
			check(items[k-1])
		}
	}
	// The owned copy is the same skeleton.
	for _, it := range items[:64] {
		if err := diff(ddg.BuildSkeleton(it.b, it.arch), ddg.ReferenceSkeleton(it.b, it.arch)); err != nil {
			t.Fatalf("BuildSkeleton %s: %v", it.what, err)
		}
	}
}

// TestBuilderAllocatesNothingWarm pins the ownership rule: once its
// arrays have grown to a function's blocks, building them all again
// takes nothing from the heap.
func TestBuilderAllocatesNothingWarm(t *testing.T) {
	fn, err := bench.ByName("A").Compile()
	if err != nil {
		t.Fatal(err)
	}
	g, err := opt.Prepare(fn, 8)
	if err != nil {
		t.Fatal(err)
	}
	var bd ddg.Builder
	build := func() {
		for _, b := range g.Blocks {
			bd.Build(b, machine.Baseline)
		}
	}
	build()
	if n := testing.AllocsPerRun(5, build); n != 0 {
		t.Errorf("a warm Builder allocates %v times over kernel A's blocks at unroll 8, want 0", n)
	}
}

// TestBuildSetMatchesReference: a packed set is every block's skeleton,
// each the reference's, whatever the builder built before; and each
// per-instruction table is capped at its own length, so that appending
// to one block's copies it rather than writing into the next block's.
func TestBuildSetMatchesReference(t *testing.T) {
	var bd ddg.Builder
	for _, bm := range bench.All() {
		fn, err := bm.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range []int{1, 4} {
			g, err := opt.Prepare(fn, u)
			if err != nil {
				continue // over the unroller's budget
			}
			pg, _ := sched.PartitionClone(g, machine.Arch{ALUs: 8, MULs: 2, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 4})
			for _, f := range []*ir.Func{g, pg} {
				for _, arch := range latencyClasses() {
					set := bd.BuildSet(f.Blocks, arch)
					if len(set) != len(f.Blocks) {
						t.Fatalf("%s u=%d: %d skeletons for %d blocks", bm.Name, u, len(set), len(f.Blocks))
					}
					for i, b := range f.Blocks {
						sk := &set[i]
						if err := diff(sk, ddg.ReferenceSkeleton(b, arch)); err != nil {
							t.Fatalf("%s u=%d %s l2=%d: %v", bm.Name, u, b.Name, arch.L2Lat, err)
						}
						if cap(sk.NPreds) != len(sk.NPreds) || cap(sk.Heights) != len(sk.Heights) {
							t.Fatalf("%s u=%d %s: tables of %d/%d reach %d/%d", bm.Name, u, b.Name,
								len(sk.NPreds), len(sk.Heights), cap(sk.NPreds), cap(sk.Heights))
						}
					}
				}
			}
		}
	}
}

// TestBuildSetObjects pins the packing: a warm builder makes a set in
// three objects — the skeletons, their edges, their per-instruction
// tables — whether the set has one block or a hundred.
func TestBuildSetObjects(t *testing.T) {
	var blocks []*ir.Block
	for len(blocks) < 100 {
		for _, c := range indexCases {
			blocks = append(blocks, decodeBlock(c.data))
		}
	}
	var bd ddg.Builder
	for _, n := range []int{1, 8, 100} {
		set := blocks[:n]
		bd.BuildSet(set, machine.Baseline)
		if got := testing.AllocsPerRun(10, func() { bd.BuildSet(set, machine.Baseline) }); got != 3 {
			t.Errorf("a set of %d blocks makes %v objects, want 3", n, got)
		}
	}
}

// The hand-made blocks and the fuzz target share one encoding, so the
// first are the second's seed corpus: four bytes an instruction
// (decodeBlock), over eight registers, two arrays and eight constants
// that put Imm+Off on both sides of every edge the index has.
const fuzzRegs = 8

var fuzzConsts = [8]int32{0, 1, 2, -1, ddg.IndexBound - 1, ddg.IndexBound, math.MaxInt32, math.MinInt32}

// Indices into fuzzConsts.
const (
	c0, c1, c2, cNeg1, cLast, cBound, cMax, cMin = 0, 1, 2, 3, 4, 5, 6, 7
)

const (
	fzAdd = iota
	fzMul
	fzLoad
	fzStore
	fzMov
	fzSub
	fzOps
)

// Array selectors.
const arrA, arrB = 0, 1

// alu encodes dest = a op b over registers.
func alu(op, dest, a, b byte) []byte { return []byte{op, dest, a, b << 1} }

// mov encodes dest = mov imm.
func mov(dest, imm byte) []byte { return []byte{fzMov, dest, imm, 0} }

// Accesses at a constant (Imm = fuzzConsts[imm]) or register base, plus
// Off = fuzzConsts[off]; reg is the register loaded or stored.
func ldImm(reg, arr, imm, off byte) []byte { return []byte{fzLoad, reg, arr | 2 | imm<<2, off} }
func stImm(reg, arr, imm, off byte) []byte { return []byte{fzStore, reg, arr | 2 | imm<<2, off} }
func ldReg(reg, arr, base, off byte) []byte {
	return []byte{fzLoad, reg, arr | base<<2, off}
}
func stReg(reg, arr, base, off byte) []byte {
	return []byte{fzStore, reg, arr | base<<2, off}
}

// seq concatenates instructions; a trailing byte adds the terminator.
func seq(term bool, parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	if term {
		out = append(out, 0)
	}
	return out
}

var fuzzMems = []*ir.MemRef{
	{Name: "a", Space: ir.L2, Elem: ir.ElemI32, Size: 64},
	{Name: "b", Space: ir.L1, Elem: ir.ElemI32, Size: 64},
}

// decodeBlock turns bytes into a straight-line block: four bytes an
// instruction (at most 96), one to three left over a terminator (ret
// for one, a conditional branch on a register otherwise).
func decodeBlock(data []byte) *ir.Block {
	b := &ir.Block{Name: "fz"}
	reg := func(x byte) ir.Reg { return ir.Reg(x % fuzzRegs) }
	n := len(data) / 4
	if n > 96 {
		n = 96
	}
	for k := 0; k < n; k++ {
		op, x, y, z := data[4*k]%fzOps, data[4*k+1], data[4*k+2], data[4*k+3]
		switch op {
		case fzLoad, fzStore:
			in := &ir.Instr{Mem: fuzzMems[y&1], Off: fuzzConsts[z%8], Elem: ir.ElemI32}
			addr := ir.R(ir.Reg((y >> 2) % 4))
			if y&2 != 0 {
				addr = ir.Imm(fuzzConsts[(y>>2)%8])
			}
			if op == fzStore {
				in.Op, in.Dest, in.Args = ir.OpStore, ir.NoReg, []ir.Operand{addr, ir.R(reg(x))}
			} else {
				in.Op, in.Dest, in.Args = ir.OpLoad, reg(x), []ir.Operand{addr}
			}
			b.Append(in)
		case fzMov:
			b.Append(ir.NewInstr(ir.OpMov, reg(x), ir.Imm(int32(y))))
		default:
			irOp := [fzOps]ir.Op{fzAdd: ir.OpAdd, fzMul: ir.OpMul, fzSub: ir.OpSub}[op]
			rhs := ir.R(reg(z >> 1))
			if z&1 != 0 {
				rhs = ir.Imm(int32(z >> 1))
			}
			b.Append(ir.NewInstr(irOp, reg(x), ir.R(reg(y)), rhs))
		}
	}
	switch rest := data[len(data)&^3:]; len(rest) {
	case 0:
	case 1:
		b.Append(&ir.Instr{Op: ir.OpRet, Dest: ir.NoReg})
	default:
		b.Append(&ir.Instr{Op: ir.OpCBr, Dest: ir.NoReg, Args: []ir.Operand{ir.R(reg(rest[0]))}})
	}
	return b
}

// indexCases are blocks made for the constant-address index's edges.
// Stores write r0 and loads define r4..r7 unless a case is about
// registers, so no register dependence hides a missing memory edge.
var indexCases = []struct {
	name string
	data []byte
	// edges that must be there (from, to) and pairs that must not be
	deps, indeps [][2]int
}{
	{
		name: "last indexed address and first beyond",
		data: seq(true,
			stImm(0, arrA, cLast, c0),     // 0: a[bound-1]
			stImm(0, arrA, cBound, c0),    // 1: a[bound]
			ldImm(4, arrA, cLast, c0),     // 2: a[bound-1]
			ldImm(5, arrA, cBound, c0),    // 3: a[bound]
			ldImm(6, arrA, cLast, c1),     // 4: a[bound-1+1]
			ldImm(7, arrA, cBound, cNeg1), // 5: a[bound-1]
		),
		deps:   [][2]int{{0, 2}, {1, 3}, {1, 4}, {0, 5}},
		indeps: [][2]int{{0, 3}, {1, 2}, {0, 4}, {1, 5}},
	},
	{
		name: "negative address",
		data: seq(true,
			stImm(0, arrA, cNeg1, c0), // 0: a[-1]
			stImm(0, arrA, c0, c0),    // 1: a[0]
			ldImm(4, arrA, c0, cNeg1), // 2: a[0-1]
			ldImm(5, arrA, c1, cNeg1), // 3: a[1-1]
		),
		deps:   [][2]int{{0, 2}, {1, 3}},
		indeps: [][2]int{{0, 3}, {1, 2}},
	},
	{
		name: "Imm+Off wraps int32",
		data: seq(true,
			stImm(0, arrA, cMax, c1),   // 0: a[MaxInt32+1] = a[MinInt32]
			stImm(0, arrA, cMin, cMin), // 1: a[MinInt32+MinInt32] = a[0]
			ldImm(4, arrA, cMin, c0),   // 2: a[MinInt32]
			ldImm(5, arrA, c0, c0),     // 3: a[0]
			ldImm(6, arrA, cMax, cMax), // 4: a[-2]
		),
		deps:   [][2]int{{0, 2}, {1, 3}},
		indeps: [][2]int{{0, 3}, {1, 2}, {0, 4}, {1, 4}},
	},
	{
		name: "constants and a register base on one array",
		data: seq(true,
			stImm(0, arrA, c0, c0),    // 0: a[0]
			stReg(0, arrA, 1, c0),     // 1: a[r1]
			ldImm(4, arrA, c0, c0),    // 2: a[0]
			ldImm(5, arrA, c1, c0),    // 3: a[1]
			ldReg(6, arrA, 2, c1),     // 4: a[r2+1]
			stImm(0, arrA, c1, c0),    // 5: a[1]
			stReg(0, arrA, 1, cBound), // 6: a[r1+bound]
		),
		deps:   [][2]int{{0, 2}, {1, 2}, {1, 3}, {0, 4}, {1, 4}, {3, 5}, {4, 5}, {2, 6}, {5, 6}},
		indeps: [][2]int{{0, 3}, {0, 5}, {2, 5}, {1, 6}},
	},
	{
		name: "one base register, equal and different offsets, redefined between",
		data: seq(true,
			stReg(0, arrA, 1, c1), // 0: a[r1+1]
			ldReg(4, arrA, 1, c1), // 1: a[r1+1]
			ldReg(5, arrA, 1, c2), // 2: a[r1+2]
			alu(fzAdd, 1, 1, 1),   // 3: r1 = r1 + r1
			stReg(0, arrA, 1, c2), // 4: a[r1+2]
			stReg(0, arrA, 2, c2), // 5: a[r2+2]
		),
		deps:   [][2]int{{0, 1}, {2, 4}, {0, 5}, {1, 5}, {4, 5}},
		indeps: [][2]int{{0, 2}, {0, 4}},
	},
	{
		name: "two arrays interleaved",
		data: seq(false,
			stImm(0, arrA, c0, c0), // 0: a[0]
			stImm(0, arrB, c0, c0), // 1: b[0]
			ldImm(4, arrA, c0, c0), // 2: a[0]
			ldImm(5, arrB, c0, c0), // 3: b[0]
			stImm(0, arrB, c1, c0), // 4: b[1]
			ldImm(6, arrA, c1, c0), // 5: a[1]
			stReg(0, arrA, 1, c0),  // 6: a[r1]
			ldImm(7, arrB, c1, c0), // 7: b[1]
		),
		deps:   [][2]int{{0, 2}, {1, 3}, {4, 7}, {0, 6}, {2, 6}, {5, 6}},
		indeps: [][2]int{{0, 3}, {1, 2}, {1, 4}, {4, 5}, {6, 7}, {0, 1}},
	},
	{
		name: "redefinitions: anti and output edges beside the memory ones",
		data: seq(true,
			mov(4, 7),              // 0: r4 = 7
			stImm(4, arrB, c2, c0), // 1: b[2] = r4
			ldImm(4, arrB, c2, c0), // 2: r4 = b[2]
			alu(fzMul, 4, 4, 4),    // 3: r4 = r4 * r4
			stImm(4, arrB, c2, c0), // 4: b[2] = r4
		),
		deps: [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {1, 4}, {2, 4}},
	},
}

func edge(sk *ddg.Skeleton, from, to int) bool {
	for _, e := range sk.Succs(from) {
		if int(e.To) == to {
			return true
		}
	}
	return false
}

// TestBuilderIndexEdges holds the index to the reference and to the
// edges each case was made for, with one Builder across the cases and
// the latency classes.
func TestBuilderIndexEdges(t *testing.T) {
	var bd ddg.Builder
	for _, c := range indexCases {
		b := decodeBlock(c.data)
		for _, arch := range latencyClasses() {
			sk := bd.Build(b, arch)
			if err := diff(sk, ddg.ReferenceSkeleton(b, arch)); err != nil {
				t.Errorf("%s (l2=%d): %v", c.name, arch.L2Lat, err)
			}
			for _, p := range c.deps {
				if !edge(sk, p[0], p[1]) {
					t.Errorf("%s: no edge %d -> %d (%s, then %s)", c.name, p[0], p[1], b.Instrs[p[0]], b.Instrs[p[1]])
				}
			}
			for _, p := range c.indeps {
				if edge(sk, p[0], p[1]) {
					t.Errorf("%s: edge %d -> %d between independent %s and %s", c.name, p[0], p[1], b.Instrs[p[0]], b.Instrs[p[1]])
				}
			}
		}
	}
}

// FuzzSkeletonBuilder builds whatever block the bytes spell (see
// decodeBlock) with a Builder that has just built another one, under
// every latency class, and holds it to the reference.
func FuzzSkeletonBuilder(f *testing.F) {
	for _, c := range indexCases {
		f.Add(c.data)
	}
	warm := decodeBlock(indexCases[3].data)
	f.Fuzz(func(t *testing.T, data []byte) {
		b := decodeBlock(data)
		var bd ddg.Builder
		for _, arch := range latencyClasses() {
			bd.Build(warm, arch)
			if err := diff(bd.Build(b, arch), ddg.ReferenceSkeleton(b, arch)); err != nil {
				t.Fatalf("l2=%d: %v\n%v", arch.L2Lat, err, b.Instrs)
			}
		}
	})
}
