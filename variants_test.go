package customfit_test

import (
	"context"
	"slices"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/cli"
	"customfit/internal/dse"
	"customfit/internal/dse/dsetest"
	"customfit/internal/ir"
	"customfit/internal/opt"
	"customfit/internal/sched"
)

// TestVariantCellsRun runs schedules nobody chose: it explores a small
// grid under each ablation of the backend (the pressure-blind scheduler,
// and the kernel optimized without LICM, reassociation or
// if-conversion) and holds every non-failed cell to checkCell against
// that explore's own cycles and spills. Each variant must move some cell
// off the shipped results, or the check would only repeat
// TestShippedCellsRun.
func TestVariantCellsRun(t *testing.T) {
	res := dsetest.Shipped(t)
	x := &dse.Explorer{EvalConfig: dse.EvalConfig{Width: 96}}
	for _, name := range []string{"A", "C", "F"} {
		x.Benchmarks = append(x.Benchmarks, bench.ByName(name))
	}
	for _, tuple := range []string{"4 2 128 1 4 2", "8 4 256 2 4 2", "16 4 128 1 4 8", "8 4 512 1 2 1"} {
		a, err := cli.ParseArch(tuple)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(res.Archs, a) {
			t.Fatalf("%v is not a machine of the shipped space", a)
		}
		x.Archs = append(x.Archs, a)
	}
	fns := map[string]*ir.Func{}
	for _, b := range x.Benchmarks {
		fn, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		fns[b.Name] = fn
	}
	for _, v := range []sched.Variant{
		{NoPressureThrottle: true},
		{Passes: opt.Passes{NoLICM: true}},
		{Passes: opt.Passes{NoReassociation: true}},
		{Passes: opt.Passes{NoIfConversion: true}},
	} {
		x.Variant = v
		got, err := x.Measure(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for _, b := range x.Benchmarks {
			for _, ev := range got.Eval[b.Name] {
				stored := res.Eval[b.Name][slices.Index(res.Archs, ev.Arch)]
				if ev.Failed != stored.Failed || ev.Unroll != stored.Unroll || ev.Cycles != stored.Cycles || ev.Spilled != stored.Spilled {
					moved++
				}
				if !ev.Failed {
					checkCell(t, fns[b.Name], b, ev, v)
				}
			}
		}
		t.Logf("%+v moves %d cells of %d", v, moved, len(x.Benchmarks)*len(x.Archs))
		if moved == 0 {
			t.Errorf("%+v moves no cell of its grid", v)
		}
	}
}
