package sim

import (
	"testing"

	"customfit/internal/bench"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/opt"
	"customfit/internal/sched"
	"customfit/internal/vliw"
)

// BenchmarkSimRun measures the sim layer alone (the `sim` span: decode
// and execution of an already compiled program). One op simulates the
// lightest and the heaviest kernel of the suite, G and A, each on the
// baseline and on a 4-cluster machine, at the width the end-to-end
// benchmark simulates: short and long schedules, one and several
// register files, L1-heavy spill code and L2 streaming in one figure.
// cycles/op, the simulated cycles of the four programs, repeats exactly:
// `make bench-diff` holds it and allocs/op to the last unit.
func BenchmarkSimRun(b *testing.B) {
	const width = 256
	type run struct {
		prog *vliw.Program
		env  *ir.Env
	}
	var runs []run
	for _, name := range []string{"G", "A"} {
		k := bench.ByName(name)
		fn, err := k.Compile()
		if err != nil {
			b.Fatal(err)
		}
		prepared, err := opt.Prepare(fn, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, arch := range []machine.Arch{
			machine.Baseline,
			{ALUs: 8, MULs: 2, Regs: 256, L2Ports: 1, L2Lat: 4, Clusters: 4},
		} {
			res, err := sched.Compile(prepared, arch)
			if err != nil {
				b.Fatal(err)
			}
			runs = append(runs, run{res.Prog, k.NewCase(width, 1).Env()})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		for _, r := range runs {
			st, err := Run(r.prog, r.env)
			if err != nil {
				b.Fatal(err)
			}
			cycles += st.Cycles
		}
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
}
