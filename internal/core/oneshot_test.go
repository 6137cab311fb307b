package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/machine"
	"customfit/internal/obs"
	"customfit/internal/sim"
)

// oneShotArchs are the machines of BenchmarkOneShot: the baseline (one
// cluster: partitioned in place, skeletons straight from the builder)
// and two clustered machines of the paper's tables, the second of which
// the larger kernels spill on at unroll 2.
var oneShotArchs = []machine.Arch{
	machine.Baseline,
	{ALUs: 8, MULs: 2, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 4},
	{ALUs: 16, MULs: 4, Regs: 256, L2Ports: 2, L2Lat: 4, Clusters: 8},
}

// BenchmarkOneShot measures the one-shot path whole, the way cfp-sim,
// cfp-compile and POST /v1/simulate walk it and the end-to-end
// benchmark's oneshot_sim workload measures it: source text in,
// simulated run out, nothing kept between requests but what the process
// keeps by itself (the idle arenas of sched, opt and sim). One op is the
// eleven kernels on oneShotArchs, unroll 1 on the baseline and 2
// elsewhere, at width 64. cycles/op repeats exactly; B/op and allocs/op
// are what the idle lists exist for.
func BenchmarkOneShot(b *testing.B) {
	type request struct {
		bench *bench.Benchmark
		c     *bench.Case
	}
	var reqs []request
	for _, k := range bench.All() {
		reqs = append(reqs, request{k, k.NewCase(64, 1)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		for _, r := range reqs {
			for _, arch := range oneShotArchs {
				unroll := 2
				if arch == machine.Baseline {
					unroll = 1 // kernel C unrolled does not fit its 64 registers
				}
				k, err := ParseKernel(r.bench.Source)
				if err != nil {
					b.Fatal(err)
				}
				c, err := k.Compile(arch, unroll)
				if err != nil {
					b.Fatalf("%s on %s: %v", r.bench.Name, arch, err)
				}
				run := r.c.Clone()
				st, err := c.Run(run.Args, run.Mem)
				if err != nil {
					b.Fatalf("%s on %s: %v", r.bench.Name, arch, err)
				}
				cycles += st.Cycles
			}
		}
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
}

// TestOneShotStreamKeepsArena is the half of the idle-list rule a
// request stream needs: 200 compiles of alternating kernels on one
// goroutine, two forced collections between each — what emptied the
// sync.Pool this replaced every time — must make no backend arena after
// the first request's, and must allocate what the same stream allocates
// with the collector off. On the parent every compile grew a new arena:
// half as many bytes again. The count is of backend arenas; the bytes
// cover all three lists. (The optimizer's workspace sits idle all
// through the backend's half of a request: forced collections on top of
// a heavy kernel's own — A's, four a request here — do age it out, and
// it is made again for a few percent of that request's bytes. A stream
// that collects 0.3 times a request keeps it.)
func TestOneShotStreamKeepsArena(t *testing.T) {
	col := obs.NewCollector()
	obs.Install(col)
	defer obs.Install(nil)
	made := col.Counter("sched.arenas_made").Value

	var kernels []*Kernel
	for _, name := range []string{"H", "G"} {
		k, err := ParseKernel(bench.ByName(name).Source)
		if err != nil {
			t.Fatal(err)
		}
		kernels = append(kernels, k)
	}
	arch := oneShotArchs[1]
	stream := func(n int, between func()) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			if _, err := kernels[i%2].Compile(arch, 2); err != nil {
				t.Fatal(err)
			}
			between()
		}
		runtime.ReadMemStats(&m1)
		return (m1.TotalAlloc - m0.TotalAlloc) / uint64(n)
	}

	stream(2, func() {}) // the first requests grow the arenas
	first := made()
	collected := stream(200, func() { runtime.GC(); runtime.GC() })
	if extra := made() - first; extra > 1 {
		t.Errorf("%d arenas made after the first requests': a collection between requests costs the stream its arena", extra)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	quiet := stream(200, func() {})
	if float64(collected) > 1.1*float64(quiet) {
		t.Errorf("%d bytes per compile with two collections between requests, %d with the collector off: more than a tenth apart", collected, quiet)
	}
	t.Logf("%d bytes per compile collected, %d quiet", collected, quiet)
}

// TestRunStatsCarriesCustomUnit: on a machine with custom ops the
// simulator may find the custom unit the busiest resource, and the
// facade must carry its occupancy beside the name — it printed "bound by
// cu" next to four occupancies none of which bounded the run. Whatever
// class Bound names, its occupancy is the largest RunStats holds.
func TestRunStatsCarriesCustomUnit(t *testing.T) {
	set, err := machine.ParseOpCatalog([]string{"mac/3/2:mul $0 $1;add %0 $2"})
	if err != nil {
		t.Fatal(err)
	}
	sawCU := false
	for _, name := range []string{"A", "D", "G"} {
		b := bench.ByName(name)
		k, err := ParseKernel(b.Source)
		if err != nil {
			t.Fatal(err)
		}
		for _, arch := range oneShotArchs {
			arch = arch.WithOps(set, set.FullMask())
			c, err := k.Compile(arch, 1)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, arch, err)
			}
			run := b.NewCase(32, 1)
			got, err := c.Run(run.Args, run.Mem)
			if err != nil {
				t.Fatal(err)
			}
			ref := b.NewCase(32, 1)
			want, err := sim.Run(c.Prog, ref.Env())
			if err != nil {
				t.Fatal(err)
			}
			if got.CUOcc != want.CUOcc {
				t.Errorf("%s on %s: RunStats.CUOcc = %v, the simulator's is %v", name, arch, got.CUOcc, want.CUOcc)
			}
			sawCU = sawCU || got.CUOcc > 0
			occ := map[string]float64{"alu": got.ALUOcc, "mul": got.MULOcc, "l1": got.L1Occ, "l2": got.L2Occ, "cu": got.CUOcc}
			bound, named := occ[got.Bound]
			if !named {
				continue // "none": an empty run
			}
			for class, o := range occ {
				if o > bound {
					t.Errorf("%s on %s: bound by %s at %.3f, but %s is at %.3f", name, arch, got.Bound, bound, class, o)
				}
			}
		}
	}
	if !sawCU {
		t.Error("no run used the custom unit: the test needs a kernel the mac op fuses in")
	}
}
