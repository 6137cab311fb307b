package regalloc_test

import (
	"testing"

	"customfit/internal/cc"
	"customfit/internal/machine"
	"customfit/internal/opt"
	"customfit/internal/regalloc"
	"customfit/internal/sched"
)

const testSrc = `
	const int w[8] = {1,2,3,4,4,3,2,1};
	kernel k(int in[], int out[], int n) {
		int i;
		for (i = 0; i < n; i++) {
			int acc; int t;
			acc = 0;
			for (t = 0; t < 8; t++) { acc += in[i+t] * w[t]; }
			out[i] = acc >> 4;
		}
	}`

func compileFor(t *testing.T, arch machine.Arch, unroll int) *regalloc.Result {
	t.Helper()
	fn, err := cc.CompileKernel(testSrc)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := opt.Prepare(fn, unroll)
	if err != nil {
		t.Fatal(err)
	}
	g, pl := sched.PartitionClone(prepared, arch)
	// The compile driver's budget: the register file less its reserve of 2.
	prog, err := sched.ScheduleWithCap(g, arch, pl, arch.RegsPC()-2)
	if err != nil {
		t.Fatal(err)
	}
	return regalloc.Allocate(prog)
}

func TestAllocateFitsRichMachine(t *testing.T) {
	arch := machine.Arch{ALUs: 8, MULs: 4, Regs: 256, L2Ports: 2, L2Lat: 4, Clusters: 2}
	res := compileFor(t, arch, 2)
	if !res.Fits {
		t.Fatalf("allocation did not fit: maxlive=%v capacity=%d", res.MaxLive, res.Capacity)
	}
	for c, ml := range res.MaxLive {
		if ml > arch.RegsPC() {
			t.Errorf("cluster %d pressure %d exceeds %d", c, ml, arch.RegsPC())
		}
	}
}

func TestAssignmentWithinCapacity(t *testing.T) {
	res := compileFor(t, machine.Arch{ALUs: 4, MULs: 2, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 2}, 2)
	if !res.Fits {
		t.Fatal("expected fit")
	}
	for r, p := range res.Assign {
		if p >= res.Capacity {
			t.Errorf("reg v%d assigned phys %d beyond capacity %d", r, p, res.Capacity)
		}
	}
}

func TestOverflowReportsVictims(t *testing.T) {
	res := compileFor(t, machine.Arch{ALUs: 16, MULs: 4, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 8}, 8)
	if res.Fits {
		t.Skip("machine unexpectedly fit; pressure-dependent")
	}
	if len(res.Victims) == 0 {
		t.Error("overflow without victims")
	}
	seen := map[int32]bool{}
	for _, v := range res.Victims {
		if seen[int32(v)] {
			t.Errorf("duplicate victim v%d", v)
		}
		seen[int32(v)] = true
	}
}
