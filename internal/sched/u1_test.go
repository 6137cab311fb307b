package sched

import (
	"errors"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/machine"
	"customfit/internal/opt"
)

func TestU1CompilesEverywhere(t *testing.T) {
	archs := []machine.Arch{
		machine.Baseline,
		{ALUs: 16, MULs: 4, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 8},
		{ALUs: 16, MULs: 4, Regs: 256, L2Ports: 1, L2Lat: 4, Clusters: 16},
		{ALUs: 16, MULs: 8, Regs: 512, L2Ports: 4, L2Lat: 8, Clusters: 1},
	}
	for _, b := range bench.All() {
		fn, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		prepared, err := opt.Prepare(fn, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, arch := range archs {
			res, err := Compile(prepared, arch)
			if err != nil {
				t.Errorf("%s u=1 %s: %v", b.Name, arch, err)
				continue
			}
			t.Logf("%s u=1 %s: spilled=%d iters=%d", b.Name, arch, res.Spilled, res.Iterations)
		}
	}
}

// TestU1SpillLoopDoesNotConverge pins a known failure of the spill loop:
// A (fir7x7) at unroll 1 on (16 4 128 1 8 2) and (16 8 128 1 8 2) runs
// out of spill rounds, while its neighbours with half the L2 latency or
// twice the clusters compile. It fails the same way through the
// one-shot path (cfp-compile, cfp-serve), CompilePrepared and the
// explorer's delta path. Backend v2's converging spill loop (ROADMAP
// item 9e) is the change expected to flip the failing cells: it must
// update this test and the shipped results together.
func TestU1SpillLoopDoesNotConverge(t *testing.T) {
	fn, err := bench.ByName("A").Compile()
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := opt.Prepare(fn, 1)
	if err != nil {
		t.Fatal(err)
	}
	prep := NewPrepared(prepared)
	sc := NewScratch()
	paths := []struct {
		name    string
		compile func(arch machine.Arch) (*Result, error)
	}{
		{"CompileSpan", func(a machine.Arch) (*Result, error) { return CompileSpan(nil, prepared, a) }},
		{"CompilePrepared", func(a machine.Arch) (*Result, error) { return CompilePrepared(nil, prep, a, nil) }},
		{"CompilePreparedDelta", func(a machine.Arch) (*Result, error) { return CompilePreparedDelta(nil, prep, a, sc) }},
	}
	cells := []struct {
		arch    machine.Arch
		spilled int // -1: ErrNoFit
	}{
		{machine.Arch{ALUs: 16, MULs: 4, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 2}, 44},
		{machine.Arch{ALUs: 16, MULs: 4, Regs: 128, L2Ports: 1, L2Lat: 8, Clusters: 2}, -1},
		{machine.Arch{ALUs: 16, MULs: 8, Regs: 128, L2Ports: 1, L2Lat: 8, Clusters: 2}, -1},
		{machine.Arch{ALUs: 16, MULs: 4, Regs: 128, L2Ports: 1, L2Lat: 8, Clusters: 4}, 247},
	}
	for _, p := range paths {
		for _, c := range cells {
			res, err := p.compile(c.arch)
			switch {
			case c.spilled < 0 && !errors.Is(err, ErrNoFit):
				t.Errorf("%s %s: err %v, want ErrNoFit", p.name, c.arch, err)
			case c.spilled >= 0 && err != nil:
				t.Errorf("%s %s: %v, want %d spilled", p.name, c.arch, err, c.spilled)
			case c.spilled >= 0 && res.Spilled != c.spilled:
				t.Errorf("%s %s: spilled %d, want %d", p.name, c.arch, res.Spilled, c.spilled)
			}
		}
	}
}
