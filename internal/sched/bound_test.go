package sched

import (
	"strings"
	"testing"

	"customfit/internal/cc"
	"customfit/internal/machine"
	"customfit/internal/opt"
)

// TestLowerBoundAdmissible is the load-bearing property of the search
// pruning layer: for every block of every (kernel, unroll,
// architecture) combination, the no-compile bound must not exceed the
// cycles the real backend schedule spends per execution of that block
// — including schedules lengthened by spill code.
func TestLowerBoundAdmissible(t *testing.T) {
	fn, err := cc.CompileKernel(pipeSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int{1, 2, 4} {
		g, err := opt.Prepare(fn, u)
		if err != nil {
			t.Fatalf("Prepare(u=%d): %v", u, err)
		}
		prep := NewPrepared(g)
		for _, arch := range testArchs {
			lbs := LowerBound(prep, arch)
			if len(lbs) != len(g.Blocks) {
				t.Fatalf("u=%d %s: %d bounds for %d blocks", u, arch, len(lbs), len(g.Blocks))
			}
			res, err := CompilePrepared(nil, prep, arch, nil)
			if err != nil {
				continue // ErrNoFit etc: nothing to compare against
			}
			byName := map[string]int{}
			for _, sb := range res.Prog.Blocks {
				byName[sb.IR.Name] = sb.Len
			}
			for i, b := range g.Blocks {
				got, ok := byName[b.Name]
				if !ok {
					continue
				}
				if lbs[i] > got {
					t.Errorf("u=%d %s block %s: bound %d exceeds real schedule %d (inadmissible)",
						u, arch, b.Name, lbs[i], got)
				}
				if len(b.Instrs) > 0 && lbs[i] < 1 {
					t.Errorf("u=%d %s block %s: bound %d for nonempty block", u, arch, b.Name, lbs[i])
				}
			}
		}
	}
}

// TestLowerBoundTightOnWideMachines sanity-checks the bound is not
// vacuous: on the baseline 1-wide machine the resource terms must bite
// (bound well above 1 for the loop body), and bounds must not increase
// as the machine gets strictly more parallel at fixed latency.
func TestLowerBoundTightOnWideMachines(t *testing.T) {
	fn, err := cc.CompileKernel(pipeSrc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := opt.Prepare(fn, 1)
	if err != nil {
		t.Fatal(err)
	}
	prep := NewPrepared(g)
	narrow := testArchs[0] // baseline
	wide := narrow
	wide.ALUs, wide.MULs, wide.Regs, wide.L2Ports = 16, 8, 512, 4
	nb := LowerBound(prep, narrow)
	wb := LowerBound(prep, wide)
	sumN, sumW := 0, 0
	for i := range nb {
		sumN += nb[i]
		sumW += wb[i]
		if wb[i] > nb[i] {
			t.Errorf("block %d: bound grew from %d to %d with strictly more resources",
				i, nb[i], wb[i])
		}
	}
	if sumN <= sumW {
		t.Errorf("narrow bound %d not above wide bound %d: resource terms never bite", sumN, sumW)
	}
}

// TestLowerBoundAbstainsOnRewrittenISA: the bound counts the pristine
// blocks, so it is offered for every machine whose blocks the backend
// schedules as they are and for none whose instruction set it rewrites
// first — min/max fusion, custom ops — where it would not be admissible.
func TestLowerBoundAbstainsOnRewrittenISA(t *testing.T) {
	prep := NewPrepared(preparePipe(t, 2))
	set, err := machine.ParseOpCatalog([]string{"mac/3/2:mul $0 $1;add %0 $2"})
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range testArchs {
		if lbs := LowerBound(prep, arch); len(lbs) != len(prep.F.Blocks) {
			t.Errorf("%s: %d bounds for %d blocks", arch, len(lbs), len(prep.F.Blocks))
		}
		for _, rewritten := range []machine.Arch{arch.WithMinMax(), arch.WithOps(set, set.FullMask())} {
			if lbs := LowerBound(prep, rewritten); lbs != nil {
				t.Errorf("%s (min/max %v, ops %q): bounds %v for blocks the backend rewrites",
					rewritten, rewritten.MinMax, rewritten.Ops.Key(), lbs)
			}
		}
	}
}

func TestFingerprintStableAndDescriptive(t *testing.T) {
	a, b := Fingerprint(), Fingerprint()
	if a != b {
		t.Fatalf("fingerprint not deterministic: %q vs %q", a, b)
	}
	for _, want := range []string{"backend-v", "lat(", "spill="} {
		if !strings.Contains(a, want) {
			t.Errorf("fingerprint %q missing %q", a, want)
		}
	}
}
