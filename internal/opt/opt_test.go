package opt

import (
	"math/rand"
	"strings"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/cc"
	"customfit/internal/ir"
)

// execEnv runs fn with the given scalar args and named memories (copied
// fresh) and returns the final memory state.
func execEnv(t *testing.T, fn *ir.Func, args []int32, mems map[string][]int32) map[string][]int32 {
	t.Helper()
	env := ir.NewEnv(args...)
	for name, data := range mems {
		env.Bind(name, append([]int32(nil), data...))
	}
	if _, err := ir.Interp(fn, env); err != nil {
		t.Fatalf("Interp(%s): %v\nIR:\n%s", fn.Name, err, fn)
	}
	return env.Mem
}

// assertEquivalent checks that transform(clone of fn) computes the same
// memory state as fn across the given runs.
func assertEquivalent(t *testing.T, src string, transform func(*ir.Func) *ir.Func,
	runs []struct {
		args []int32
		mems map[string][]int32
	}) (*ir.Func, *ir.Func) {
	t.Helper()
	orig, err := cc.CompileKernel(src)
	if err != nil {
		t.Fatalf("CompileKernel: %v", err)
	}
	opt := transform(orig.Clone())
	if err := opt.Verify(); err != nil {
		t.Fatalf("optimized IR does not verify: %v\n%s", err, opt)
	}
	for i, run := range runs {
		want := execEnv(t, orig, run.args, run.mems)
		got := execEnv(t, opt, run.args, run.mems)
		// Compare externally bound memories only: passes may legally
		// eliminate private local arrays.
		for name := range run.mems {
			w, g := want[name], got[name]
			if len(w) != len(g) {
				t.Fatalf("run %d: memory %q length %d vs %d", i, name, len(w), len(g))
			}
			for j := range w {
				if w[j] != g[j] {
					t.Fatalf("run %d: memory %q[%d] = %d, want %d\noptimized IR:\n%s",
						i, name, j, g[j], w[j], opt)
				}
			}
		}
	}
	return orig, opt
}

type runSpec = struct {
	args []int32
	mems map[string][]int32
}

func randomInts(r *rand.Rand, n int, lim int32) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = r.Int31n(2*lim) - lim
	}
	return out
}

func optimizeOnly(f *ir.Func) *ir.Func {
	if err := Optimize(f); err != nil {
		panic(err)
	}
	return f
}

func unrollBy(u int) func(*ir.Func) *ir.Func {
	return func(f *ir.Func) *ir.Func {
		if err := Optimize(f); err != nil {
			panic(err)
		}
		if err := Unroll(f, u); err != nil {
			panic(err)
		}
		return f
	}
}

const firSrc = `
	const int coef[4] = {3, 17, 17, 3};
	kernel fir(int in[], int out[], int n) {
		int i;
		for (i = 0; i < n; i++) {
			int acc; int k;
			acc = 0;
			for (k = 0; k < 4; k++) {
				acc += in[i + k] * coef[k];
			}
			out[i] = acc >> 5;
		}
	}`

func firRuns(r *rand.Rand) []runSpec {
	var runs []runSpec
	for _, n := range []int32{0, 1, 3, 7, 16} {
		runs = append(runs, runSpec{
			args: []int32{n},
			mems: map[string][]int32{
				"in":  randomInts(r, int(n)+4, 1000),
				"out": make([]int32, 20),
			},
		})
	}
	return runs
}

func TestOptimizePreservesFIR(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	_, opt := assertEquivalent(t, firSrc, optimizeOnly, firRuns(r))
	// LICM must have hoisted all coefficient loads out of the loop body.
	if opt.Loop == nil {
		t.Fatal("loop metadata lost")
	}
	for _, in := range opt.Loop.Header.Instrs {
		if in.Op == ir.OpLoad && in.Mem.Name == "coef" {
			t.Errorf("coefficient load still in loop body: %s", in)
		}
	}
}

func TestUnrollPreservesFIR(t *testing.T) {
	for _, u := range []int{2, 3, 4, 8} {
		u := u
		r := rand.New(rand.NewSource(int64(u)))
		assertEquivalent(t, firSrc, unrollBy(u), firRuns(r))
	}
}

const condSrc = `
	kernel thresh(int in[], int out[], int n) {
		int i; int run;
		run = 0;
		for (i = 0; i < n; i++) {
			int v;
			v = in[i];
			if (v > 100) {
				run = run + 1;
				v = v - 100;
			} else {
				run = 0;
			}
			out[i] = v + run;
		}
	}`

func condRuns(r *rand.Rand) []runSpec {
	var runs []runSpec
	for _, n := range []int32{0, 1, 5, 13} {
		runs = append(runs, runSpec{
			args: []int32{n},
			mems: map[string][]int32{
				"in":  randomInts(r, int(n), 200),
				"out": make([]int32, 16),
			},
		})
	}
	return runs
}

func TestIfConvertCollapsesLoopBody(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	_, opt := assertEquivalent(t, condSrc, optimizeOnly, condRuns(r))
	if opt.Loop == nil || !opt.Loop.SingleBlock() {
		t.Fatalf("pixel loop not collapsed to a single block:\n%s", opt)
	}
	// The branch is gone; selects carry the conditional updates.
	hasSelect := false
	for _, in := range opt.Loop.Header.Instrs {
		if in.Op == ir.OpSelect {
			hasSelect = true
		}
	}
	if !hasSelect {
		t.Error("no selects in if-converted body")
	}
}

func TestUnrollAfterIfConvert(t *testing.T) {
	for _, u := range []int{2, 4} {
		r := rand.New(rand.NewSource(int64(10 + u)))
		assertEquivalent(t, condSrc, unrollBy(u), condRuns(r))
	}
}

const scalarizeSrc = `
	int persist[2];
	kernel fs(int in[], int out[], int n) {
		int i;
		int err[3];
		err[0] = 0; err[1] = 0; err[2] = 0;
		for (i = 0; i < n; i++) {
			int c;
			for (c = 0; c < 3; c++) {
				err[c] = err[c] + in[i * 3 + c];
				out[i * 3 + c] = err[c] >> 1;
			}
			persist[0] = persist[0] + err[0];
		}
	}`

func TestScalarizePromotesLocalNotGlobal(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var runs []runSpec
	for _, n := range []int32{0, 2, 6} {
		runs = append(runs, runSpec{
			args: []int32{n},
			mems: map[string][]int32{
				"in":      randomInts(r, int(n)*3, 500),
				"out":     make([]int32, 18),
				"persist": {5, 0},
			},
		})
	}
	_, opt := assertEquivalent(t, scalarizeSrc, optimizeOnly, runs)
	if opt.MemByName("err") != nil {
		t.Error("local array err not scalarized")
	}
	if opt.MemByName("persist") == nil {
		t.Error("global array persist wrongly scalarized")
	}
}

func TestStrengthReductionRemovesEasyMuls(t *testing.T) {
	src := `
		kernel m(int in[], int out[], int n) {
			int i;
			for (i = 0; i < n; i++) {
				int v;
				v = in[i];
				out[i * 4] = v * 3;
				out[i * 4 + 1] = v * 16;
				out[i * 4 + 2] = v * 255;
				out[i * 4 + 3] = v * 10;
			}
		}`
	r := rand.New(rand.NewSource(4))
	var runs []runSpec
	for _, n := range []int32{0, 1, 4} {
		runs = append(runs, runSpec{
			args: []int32{n},
			mems: map[string][]int32{"in": randomInts(r, int(n), 30000), "out": make([]int32, 16)},
		})
	}
	_, opt := assertEquivalent(t, src, optimizeOnly, runs)
	muls := 0
	for _, b := range opt.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpMul {
				muls++
			}
		}
	}
	// *3, *16 and *255 reduce to shifts/adds; *10 (and the i*4
	// addressing, which reduces too) leaves exactly one real multiply.
	if muls != 1 {
		t.Errorf("multiplies remaining = %d, want 1 (only v*10)\n%s", muls, opt)
	}
}

func TestCleanParallelAssignmentSwap(t *testing.T) {
	src := `
		kernel swap2(int out[], int n) {
			int x; int y; int i;
			x = 1; y = 2;
			for (i = 0; i < n; i++) {
				int t;
				t = x; x = y; y = t;
			}
			out[0] = x; out[1] = y;
		}`
	var runs []runSpec
	for _, n := range []int32{0, 1, 2, 5} {
		runs = append(runs, runSpec{args: []int32{n}, mems: map[string][]int32{"out": make([]int32, 2)}})
	}
	assertEquivalent(t, src, optimizeOnly, runs)
}

func TestCleanCSEAcrossUnrolledCopies(t *testing.T) {
	// After unrolling, the i*3 base computation must be shared across
	// copies and the +3k offsets folded into addressing.
	src := `
		kernel cp(int in[], int out[], int n) {
			int i;
			for (i = 0; i < n; i++) {
				out[i * 3] = in[i * 3];
				out[i * 3 + 1] = in[i * 3 + 1];
				out[i * 3 + 2] = in[i * 3 + 2];
			}
		}`
	fn, err := cc.CompileKernel(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Prepare(fn, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Count address-generation ALU ops in the unrolled body: one shl+add
	// (i*3) per loop body would be ideal; at most a few are acceptable,
	// but 4x the single-copy count means CSE failed.
	body := g.Loop.Header
	adds := 0
	for _, in := range body.Instrs {
		if in.Op == ir.OpShl || (in.Op == ir.OpAdd && in.Args[1].IsImm() && in.Args[1].Imm != 0) {
			adds++
		}
	}
	// i*3 = shl+add (2 ops) once, plus induction updates and guard
	// arithmetic. Anything well above ~10 means per-copy recomputation
	// survived.
	if adds > 10 {
		t.Errorf("address ALU ops in unrolled body = %d, want <= 10\n%s", adds, g)
	}
	// And the unrolled kernel still works.
	r := rand.New(rand.NewSource(9))
	for _, n := range []int32{0, 1, 4, 7} {
		in := randomInts(r, int(n)*3, 100)
		out1 := make([]int32, 24)
		out2 := make([]int32, 24)
		execInto := func(f *ir.Func, out []int32) {
			env := ir.NewEnv(n).Bind("in", in).Bind("out", out)
			if _, err := ir.Interp(f, env); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
		execInto(fn, out1)
		execInto(g, out2)
		for j := range out1 {
			if out1[j] != out2[j] {
				t.Fatalf("n=%d out[%d]: %d vs %d", n, j, out1[j], out2[j])
			}
		}
	}
}

func TestUnrollRejectsOversizedBody(t *testing.T) {
	fn, err := cc.CompileKernel(firSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := Optimize(fn); err != nil {
		t.Fatal(err)
	}
	if err := Unroll(fn, MaxUnrolledOps); err == nil {
		t.Error("Unroll accepted a factor exceeding the op budget")
	}
}

// TestUnrollHugeFactorRejected: a factor whose product with the body
// size overflows an int is refused by the budget like any other, not
// let through to allocate (or panic on) a wrapped-around size.
func TestUnrollHugeFactorRejected(t *testing.T) {
	for _, b := range bench.All() {
		fn, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if err := Optimize(fn); err != nil {
			t.Fatal(err)
		}
		err = Unroll(fn, 1<<62)
		if err == nil || !strings.Contains(err.Error(), "exceeds budget") {
			t.Errorf("%s: Unroll(2^62) = %v, want the budget error", b.Name, err)
		}
	}
}

func TestCleanIsIdempotent(t *testing.T) {
	fn, err := cc.CompileKernel(condSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := Optimize(fn); err != nil {
		t.Fatal(err)
	}
	// Clean renumbers fresh temporaries, so compare structure: the
	// opcode sequence of every block must be unchanged.
	before := opShape(fn)
	Clean(fn)
	if after := opShape(fn); before != after {
		t.Errorf("Clean not structurally idempotent:\nbefore: %s\nafter:  %s", before, after)
	}
}

// opShape renders the opcode sequence of every block.
func opShape(f *ir.Func) string {
	s := ""
	for _, b := range f.Blocks {
		s += b.Name + "["
		for _, in := range b.Instrs {
			s += in.Op.String() + " "
		}
		s += "] "
	}
	return s
}

func TestLivenessSimpleLoop(t *testing.T) {
	fn, err := cc.CompileKernel(`
		kernel k(int out[], int n) {
			int i; int s;
			s = 0;
			for (i = 0; i < n; i++) { s += i; }
			out[0] = s;
		}`)
	if err != nil {
		t.Fatal(err)
	}
	lv := ComputeLiveness(fn)
	l := fn.Loop
	// The accumulator home register is live around the loop.
	var sReg ir.Reg = -1
	for _, in := range fn.Entry().Instrs {
		if in.Op == ir.OpMov && len(in.Args) == 1 && in.Args[0].IsImm() && in.Args[0].Imm == 0 {
			sReg = in.Dest // first zero-init is i... take the last
		}
	}
	if sReg < 0 {
		t.Skip("could not identify accumulator register")
	}
	if !lv.LiveIn(l.Header, sReg) && !lv.LiveOut(l.Header, sReg) {
		t.Error("accumulator not live around loop")
	}
}

func TestReassociateBuildsBalancedTree(t *testing.T) {
	// a+b+c+d+e+f+g+h as a serial chain must become a depth-3 tree.
	src := `
		kernel r(int in[], int out[], int n) {
			int i;
			for (i = 0; i < n; i++) {
				out[i] = in[i] + in[i+1] + in[i+2] + in[i+3] + in[i+4] + in[i+5] + in[i+6] + in[i+7];
			}
		}`
	fn, err := cc.CompileKernel(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Optimize(fn); err != nil {
		t.Fatal(err)
	}
	// Measure the add-depth in the loop body: longest chain of adds.
	body := fn.Loop.Header
	depth := map[ir.Reg]int{}
	maxDepth := 0
	for _, in := range body.Instrs {
		if in.Op != ir.OpAdd || in.Dest == ir.NoReg {
			continue
		}
		d := 0
		for _, a := range in.Args {
			if a.IsReg() && depth[a.Reg]+1 > d {
				d = depth[a.Reg] + 1
			}
		}
		depth[in.Dest] = d
		if d > maxDepth {
			maxDepth = d
		}
	}
	// Balanced tree over 8 leaves: depth 3 (+1 slack for address adds).
	if maxDepth > 4 {
		t.Errorf("add depth = %d, want <= 4 (balanced tree)\n%s", maxDepth, fn)
	}
	// Semantics preserved.
	in := make([]int32, 16)
	for i := range in {
		in[i] = int32(i * i)
	}
	out := make([]int32, 8)
	if _, err := ir.Interp(fn, ir.NewEnv(8).Bind("in", in).Bind("out", out)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		want := int32(0)
		for k := 0; k < 8; k++ {
			want += in[i+k]
		}
		if out[i] != want {
			t.Errorf("out[%d] = %d, want %d", i, out[i], want)
		}
	}
}

func TestReassociateLeavesShortChains(t *testing.T) {
	src := `
		kernel s(int in[], int out[], int n) {
			int i;
			for (i = 0; i < n; i++) { out[i] = in[i] + in[i+1] + 1; }
		}`
	fn, err := cc.CompileKernel(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Optimize(fn); err != nil {
		t.Fatal(err)
	}
	in := []int32{5, 7, 9}
	out := make([]int32, 2)
	if _, err := ir.Interp(fn, ir.NewEnv(2).Bind("in", in).Bind("out", out)); err != nil {
		t.Fatal(err)
	}
	if out[0] != 13 || out[1] != 17 {
		t.Errorf("out = %v, want [13 17]", out)
	}
}
