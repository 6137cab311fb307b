package sched

import (
	"testing"
	"unsafe"

	"customfit/internal/bench"
	"customfit/internal/ddg"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/opt"
	"customfit/internal/vliw"
)

// TestHotTableWidths pins the width of the three records every compile
// writes per instruction: an IR instruction (Cluster in the padding
// beside Off and Elem), a dependence edge (two int32) and a scheduled op
// (a pointer, an int32 cycle and two int16 clusters).
func TestHotTableWidths(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the widths are a 64-bit platform's")
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"ir.Instr", unsafe.Sizeof(ir.Instr{}), 80},
		{"ddg.SkelEdge", unsafe.Sizeof(ddg.SkelEdge{}), 8},
		{"vliw.Op", unsafe.Sizeof(vliw.Op{}), 16},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(%s) = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestPreparedKernelsOnClusterZero holds the premise the one-cluster
// partition class stands on: every instruction of every prepared kernel
// (the 11 kernels at unroll 1, 2, 4 and 8) carries cluster 0, so the
// class schedules the kernel itself under an all-zero placement with
// nothing to stamp. And it does: its function is the kernel, and
// compiling it leaves every instruction on cluster 0.
func TestPreparedKernelsOnClusterZero(t *testing.T) {
	one := machine.Arch{ALUs: 4, MULs: 2, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 1}
	for _, bm := range bench.All() {
		fn, err := bm.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range []int{1, 2, 4, 8} {
			g, err := opt.Prepare(fn, u)
			if err != nil {
				if u == 1 {
					t.Fatal(err)
				}
				continue // over the unroller's budget, as for the explorer
			}
			onZero := func(when string) {
				for _, b := range g.Blocks {
					for _, in := range b.Instrs {
						if in.Cluster != 0 {
							t.Fatalf("%s u=%d %s: %s/%s carries cluster %d", bm.Name, u, when, b.Name, in, in.Cluster)
						}
					}
				}
			}
			onZero("prepared")
			prep := NewPrepared(g)
			if _, err := CompilePrepared(nil, prep, one, nil); err != nil && u == 1 {
				t.Fatal(err)
			}
			if cs := prep.class(one, nil); cs.g != g || cs.src != g {
				t.Fatalf("%s u=%d: the one-cluster class schedules a copy of the kernel", bm.Name, u)
			}
			onZero("compiled")
		}
	}
}
