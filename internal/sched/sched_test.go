package sched

import (
	"math/rand"
	"strings"
	"testing"

	"customfit/internal/cc"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/opt"
	"customfit/internal/sim"
)

// testArchs is a spread of machines covering the template's axes:
// baseline, wide single-cluster, clustered, register-starved, and
// memory-rich.
var testArchs = []machine.Arch{
	machine.Baseline,
	{ALUs: 4, MULs: 2, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 1},
	{ALUs: 8, MULs: 2, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 4},
	{ALUs: 8, MULs: 4, Regs: 256, L2Ports: 2, L2Lat: 2, Clusters: 2},
	{ALUs: 16, MULs: 4, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 8},
	{ALUs: 16, MULs: 8, Regs: 512, L2Ports: 4, L2Lat: 8, Clusters: 4},
}

const pipeSrc = `
	const int coef[4] = {3, 17, 17, 3};
	kernel pipe(byte in[], byte out[], int n) {
		int i; int carry;
		carry = 0;
		for (i = 0; i < n; i++) {
			int acc; int k;
			acc = carry;
			for (k = 0; k < 4; k++) {
				acc += in[i + k] * coef[k];
			}
			if (acc > 255 << 5) { carry = 1; acc = 255 << 5; } else { carry = 0; }
			out[i] = acc >> 5;
		}
	}`

// compileAndCompare compiles src at the given unroll factor for each
// architecture, validates the schedule, simulates it, and compares the
// memory image and visit-weighted cycles against the IR interpreter.
func compileAndCompare(t *testing.T, src string, u int, widths []int32) {
	t.Helper()
	fn, err := cc.CompileKernel(src)
	if err != nil {
		t.Fatalf("CompileKernel: %v", err)
	}
	prepared, err := opt.Prepare(fn, u)
	if err != nil {
		t.Fatalf("Prepare(u=%d): %v", u, err)
	}
	r := rand.New(rand.NewSource(int64(u)))
	for _, arch := range testArchs {
		res, err := Compile(prepared, arch)
		if err != nil {
			t.Fatalf("Compile %s u=%d: %v", arch, u, err)
		}
		if err := Validate(res.Prog); err != nil {
			t.Fatalf("Validate %s u=%d: %v\n%s", arch, u, err, res.Prog)
		}
		for _, n := range widths {
			in := make([]int32, int(n)+8)
			for i := range in {
				in[i] = r.Int31n(256)
			}
			outRef := make([]int32, int(n)+4)
			outSim := make([]int32, int(n)+4)

			refEnv := ir.NewEnv(n).Bind("in", in).Bind("out", outRef)
			if _, err := ir.Interp(fn, refEnv); err != nil {
				t.Fatalf("Interp: %v", err)
			}
			simEnv := ir.NewEnv(n).Bind("in", in).Bind("out", outSim)
			stats, err := sim.Run(res.Prog, simEnv)
			if err != nil {
				t.Fatalf("sim %s u=%d n=%d: %v\n%s", arch, u, n, err, res.Prog)
			}
			for i := range outRef {
				if outRef[i] != outSim[i] {
					t.Fatalf("%s u=%d n=%d: out[%d] = %d, want %d", arch, u, n, i, outSim[i], outRef[i])
				}
			}
			// Static cycle accounting must agree with simulation.
			static := res.Prog.StaticCycles(stats.BlockVisits)
			if static != stats.Cycles {
				t.Errorf("%s u=%d n=%d: static cycles %d != simulated %d", arch, u, n, static, stats.Cycles)
			}
		}
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	for _, u := range []int{1, 2, 4} {
		compileAndCompare(t, pipeSrc, u, []int32{0, 1, 5, 17, 32})
	}
}

func TestPipelineRecurrenceKernel(t *testing.T) {
	// Serial error-diffusion-style recurrence with a local scratch array
	// and narrow stores.
	src := `
		short errbuf[64];
		kernel diffuse(byte in[], byte out[], int n) {
			int i; int err;
			err = 0;
			for (i = 0; i < n; i++) {
				int v;
				v = in[i] + ((err * 7 + 8) >> 4) + (errbuf[i] >> 1);
				out[i] = v > 255 ? 255 : v;
				err = v > 255 ? v - 255 : 0;
				errbuf[i] = err;
			}
		}`
	for _, u := range []int{1, 4} {
		compileAndCompare(t, src, u, []int32{0, 3, 16, 33})
	}
}

func TestWiderMachinesNotSlower(t *testing.T) {
	// A resource-rich machine should never need more cycles than the
	// baseline on the same unrolled IR (speedups come later from
	// derating and cost; raw cycles must be monotone-ish).
	fn, err := cc.CompileKernel(pipeSrc)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := opt.Prepare(fn, 4)
	if err != nil {
		t.Fatal(err)
	}
	cycles := func(a machine.Arch) int64 {
		res, err := Compile(prepared, a)
		if err != nil {
			t.Fatalf("Compile %s: %v", a, err)
		}
		in := make([]int32, 72)
		for i := range in {
			in[i] = int32(i * 7 % 256)
		}
		env := ir.NewEnv(64).Bind("in", in).Bind("out", make([]int32, 68))
		stats, err := sim.Run(res.Prog, env)
		if err != nil {
			t.Fatalf("sim %s: %v", a, err)
		}
		return stats.Cycles
	}
	base := cycles(machine.Baseline)
	rich := cycles(machine.Arch{ALUs: 8, MULs: 4, Regs: 256, L2Ports: 2, L2Lat: 2, Clusters: 1})
	if rich > base {
		t.Errorf("rich machine %d cycles > baseline %d", rich, base)
	}
	if rich == base {
		t.Logf("warning: no cycle win from the rich machine (base=%d)", base)
	}
}

func TestSpillPathTriggersOnTinyRegfile(t *testing.T) {
	// 16 registers per cluster with a 16-tap FIR at unroll 8 must spill
	// but still compile and compute correctly.
	src := `
		const int w[16] = {1,2,3,4,5,6,7,8,8,7,6,5,4,3,2,1};
		kernel fir16(int in[], int out[], int n) {
			int i;
			for (i = 0; i < n; i++) {
				int acc; int k;
				acc = 0;
				for (k = 0; k < 16; k++) { acc += in[i+k] * w[k]; }
				out[i] = acc >> 6;
			}
		}`
	fn, err := cc.CompileKernel(src)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := opt.Prepare(fn, 8)
	if err != nil {
		t.Fatal(err)
	}
	tiny := machine.Arch{ALUs: 16, MULs: 4, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 8}
	res, err := Compile(prepared, tiny)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if res.Spilled == 0 {
		t.Error("expected spills on a 16-regs-per-cluster machine")
	}
	if err := Validate(res.Prog); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	in := make([]int32, 48)
	for i := range in {
		in[i] = int32((i*13 + 5) % 128)
	}
	outRef := make([]int32, 32)
	outSim := make([]int32, 32)
	if _, err := ir.Interp(fn, ir.NewEnv(32).Bind("in", in).Bind("out", outRef)); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(res.Prog, ir.NewEnv(32).Bind("in", in).Bind("out", outSim)); err != nil {
		t.Fatal(err)
	}
	for i := range outRef {
		if outRef[i] != outSim[i] {
			t.Fatalf("out[%d] = %d, want %d", i, outSim[i], outRef[i])
		}
	}
}

// TestPressureThrottleAblationReachesTheDriver: a Prepared's variant
// sets the one live-value budget every round of the compile driver
// schedules under, so on a register-starved machine NoPressureThrottle
// must change what a compile decides — through both entries, kept
// classes and all.
func TestPressureThrottleAblationReachesTheDriver(t *testing.T) {
	compiles := func(prep *Prepared) (cold, delta string) {
		var c, d strings.Builder
		res, err := CompilePrepared(nil, prep, spillingCell, nil)
		scheduleDigest(&c, res, err)
		res, err = CompilePreparedDelta(nil, prep, spillingCell, nil)
		scheduleDigest(&d, res, err)
		return c.String(), d.String()
	}
	cold, delta := compiles(NewPrepared(preparePipe(t, 4)))
	blindCold, blindDelta := compiles(&Prepared{F: preparePipe(t, 4), Variant: Variant{NoPressureThrottle: true}})
	if blindCold == cold || blindDelta == delta {
		t.Errorf("the variant left a compile on %s as it was (CompilePrepared changed: %v, CompilePreparedDelta: %v)",
			spillingCell, blindCold != cold, blindDelta != delta)
	}
	if blindCold != blindDelta {
		t.Error("under the variant, the two entries disagree")
	}
}

func TestClusteringInsertsMovesAndKeepsCorrectness(t *testing.T) {
	fn, err := cc.CompileKernel(pipeSrc)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := opt.Prepare(fn, 2)
	if err != nil {
		t.Fatal(err)
	}
	arch := machine.Arch{ALUs: 8, MULs: 2, Regs: 256, L2Ports: 1, L2Lat: 4, Clusters: 4}
	res, err := Compile(prepared, arch)
	if err != nil {
		t.Fatal(err)
	}
	xmovs := 0
	clustersUsed := map[int]bool{}
	for _, sb := range res.Prog.Blocks {
		for _, op := range sb.Ops {
			if op.Instr.Op == ir.OpXMov {
				xmovs++
			}
			clustersUsed[int(op.Cluster)] = true
		}
	}
	if xmovs == 0 {
		t.Error("4-cluster machine scheduled no inter-cluster moves")
	}
	if len(clustersUsed) < 2 {
		t.Errorf("work not distributed: only clusters %v used", clustersUsed)
	}
}

func TestPartitionSingleClusterIsIdentity(t *testing.T) {
	fn, err := cc.CompileKernel(pipeSrc)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := opt.Prepare(fn, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := prepared.Clone()
	before := g.NumInstrs()
	g, pl := partitionFor(g, machine.Baseline, new(partScratch), nil)
	if g.NumInstrs() != before {
		t.Errorf("single-cluster partition changed instruction count: %d -> %d", before, g.NumInstrs())
	}
	for _, c := range pl.RegCluster {
		if c != 0 {
			t.Fatal("register homed off cluster 0 on a 1-cluster machine")
		}
	}
}

// TestCompileDeterministic: retargeting the same prepared kernel twice
// must yield identical schedules (reproducible experiments depend on
// it; map-iteration order must never leak into code generation).
func TestCompileDeterministic(t *testing.T) {
	fn, err := cc.CompileKernel(pipeSrc)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := opt.Prepare(fn, 4)
	if err != nil {
		t.Fatal(err)
	}
	arch := machine.Arch{ALUs: 8, MULs: 2, Regs: 128, L2Ports: 2, L2Lat: 4, Clusters: 4}
	shape := func() string {
		res, err := Compile(prepared, arch)
		if err != nil {
			t.Fatal(err)
		}
		return res.Prog.String()
	}
	a := shape()
	for i := 0; i < 4; i++ {
		if b := shape(); a != b {
			t.Fatalf("compilation %d differs:\n%s\nvs\n%s", i, a, b)
		}
	}
}
