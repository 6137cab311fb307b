package opt_test

import (
	"math/rand"
	"slices"
	"testing"

	"customfit/internal/cc"
	"customfit/internal/cc/cctest"
	"customfit/internal/ir"
	"customfit/internal/opt"
)

// TestPreparePreservesGeneratedKernels is the generated-input oracle of
// the optimizer: for seeded random pixel-loop kernels (cctest.Kernel —
// built so that Scalarize, IfConvert, LICM, Reassociate and the
// cleaner's folds all fire), the interpreter run of opt.Prepare's result
// must leave the same outputs as the run of the unoptimized IR, at every
// unroll factor of the sweep and at three widths: one a multiple of the
// largest factor, one that leaves a remainder at every factor, and one
// shorter than any unrolled body. It also requires that the passes the
// generator aims at did fire, so a change of the generator or of a pass
// cannot quietly turn the oracle into a test of the empty pipeline.
func TestPreparePreservesGeneratedKernels(t *testing.T) {
	const kernels = 200
	widths := []int{24, 13, 2}
	r := rand.New(rand.NewSource(20261002))
	in := make([]int32, 2*slices.Max(widths)+8)
	run := func(fn *ir.Func, n int) []int32 {
		out := make([]int32, 2*n+1)
		src := slices.Clone(in)
		if _, err := ir.Interp(fn, ir.NewEnv(int32(n)).Bind("in", src).Bind("out", out)); err != nil {
			t.Fatalf("interp %s: %v", fn.Name, err)
		}
		if !slices.Equal(src, in) {
			t.Fatal("the kernel wrote its input")
		}
		return out
	}
	scalarized, converted, rebalanced, unrolled := 0, 0, 0, 0
	for trial := 0; trial < kernels; trial++ {
		src := cctest.Kernel(r)
		fn, err := cc.CompileKernel(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		for i := range in {
			in[i] = int32(r.Intn(512) - 128)
		}
		var want [][]int32
		for _, n := range widths {
			want = append(want, run(fn, n))
		}
		for _, u := range unrollFactors {
			g, err := opt.Prepare(fn, u)
			if err != nil {
				t.Fatalf("trial %d unroll %d: %v\n%s", trial, u, err, src)
			}
			if u == 1 {
				if g.MemByName("t") == nil {
					scalarized++
				}
				if g.Loop != nil && g.Loop.SingleBlock() {
					converted++
				}
				flat := fn.Clone()
				if err := opt.OptimizeSpan(nil, flat, opt.Passes{NoReassociation: true}); err != nil {
					t.Fatal(err)
				}
				if flat.String() != g.String() {
					rebalanced++
				}
			} else if g.Loop != nil && g.Loop.Step == int32(u) {
				unrolled++
			}
			for wi, n := range widths {
				if got := run(g, n); !slices.Equal(got, want[wi]) {
					t.Fatalf("trial %d unroll %d width %d: prepared kernel computes\n%v\nthe lowered one\n%v\n%s",
						trial, u, n, got, want[wi], src)
				}
			}
		}
	}
	if scalarized != kernels || converted != kernels || rebalanced < kernels*9/10 || unrolled != kernels*(len(unrollFactors)-1) {
		t.Errorf("of %d kernels %d had the local array scalarized, %d the loop body if-converted to one block, %d a reduction rebalanced, %d of %d unrolls took: the generator no longer reaches the passes",
			kernels, scalarized, converted, rebalanced, unrolled, kernels*(len(unrollFactors)-1))
	}
	t.Logf("%d kernels: %d scalarized, %d if-converted, %d rebalanced, %d unrolls", kernels, scalarized, converted, rebalanced, unrolled)
}
