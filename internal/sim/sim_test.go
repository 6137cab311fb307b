package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"customfit/internal/cc"
	"customfit/internal/idle/idletest"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/obs"
	"customfit/internal/opt"
	"customfit/internal/sched"
	"customfit/internal/vliw"
)

const simSrc = `
	kernel saxpyish(int x[], int y[], int out[], int n) {
		int i;
		for (i = 0; i < n; i++) {
			out[i] = x[i] * 3 + y[i];
		}
	}`

func compileKernel(t *testing.T, src string, arch machine.Arch, u int) *vliw.Program {
	t.Helper()
	fn, err := cc.CompileKernel(src)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := opt.Prepare(fn, u)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Compile(prepared, arch)
	if err != nil {
		t.Fatal(err)
	}
	return res.Prog
}

func TestRunMatchesInterpreter(t *testing.T) {
	prog := compileKernel(t, simSrc, machine.Arch{ALUs: 4, MULs: 2, Regs: 128, L2Ports: 2, L2Lat: 4, Clusters: 2}, 2)
	n := int32(13)
	x := make([]int32, n)
	y := make([]int32, n)
	for i := range x {
		x[i] = int32(i * 7)
		y[i] = int32(100 - i)
	}
	out := make([]int32, n)
	st, err := Run(prog, ir.NewEnv(n).Bind("x", x).Bind("y", y).Bind("out", out))
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < n; i++ {
		if want := x[i]*3 + y[i]; out[i] != want {
			t.Errorf("out[%d] = %d, want %d", i, out[i], want)
		}
	}
	if st.Cycles <= 0 || st.Ops <= 0 || st.Bundles <= 0 {
		t.Errorf("degenerate stats: %+v", st)
	}
	if st.MemAccesses != int64(3*n) {
		t.Errorf("mem accesses = %d, want %d", st.MemAccesses, 3*n)
	}
}

func TestStaticCyclesMatchesSimulatedEverywhere(t *testing.T) {
	archs := []machine.Arch{
		machine.Baseline,
		{ALUs: 8, MULs: 2, Regs: 256, L2Ports: 4, L2Lat: 2, Clusters: 4},
	}
	for _, arch := range archs {
		prog := compileKernel(t, simSrc, arch, 4)
		n := int32(21)
		env := ir.NewEnv(n).
			Bind("x", make([]int32, n)).Bind("y", make([]int32, n)).Bind("out", make([]int32, n))
		st, err := Run(prog, env)
		if err != nil {
			t.Fatal(err)
		}
		if got := prog.StaticCycles(st.BlockVisits); got != st.Cycles {
			t.Errorf("%s: static %d != simulated %d", arch, got, st.Cycles)
		}
	}
}

func TestRunRejectsUnboundParam(t *testing.T) {
	prog := compileKernel(t, simSrc, machine.Baseline, 1)
	_, err := Run(prog, ir.NewEnv(4))
	if err == nil || !strings.Contains(err.Error(), "not bound") {
		t.Errorf("err = %v, want unbound-parameter error", err)
	}
}

func TestRunDetectsOutOfBounds(t *testing.T) {
	prog := compileKernel(t, simSrc, machine.Baseline, 1)
	n := int32(8)
	_, err := Run(prog, ir.NewEnv(n).
		Bind("x", make([]int32, 2)). // too small
		Bind("y", make([]int32, n)).
		Bind("out", make([]int32, n)))
	if err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Errorf("err = %v, want bounds error", err)
	}
}

func TestZeroTripLoop(t *testing.T) {
	prog := compileKernel(t, simSrc, machine.Baseline, 4)
	out := []int32{77}
	st, err := Run(prog, ir.NewEnv(0).
		Bind("x", []int32{1}).Bind("y", []int32{2}).Bind("out", out))
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 77 {
		t.Error("zero-trip run wrote memory")
	}
	if st.Cycles <= 0 {
		t.Error("no cycles counted for prologue/exit")
	}
}

func TestSimulatorAgreesWithInterpOnRecurrence(t *testing.T) {
	src := `
		kernel acc(int in[], int out[], int n) {
			int i; int s;
			s = 0;
			for (i = 0; i < n; i++) {
				s = (s >> 1) + in[i];
				out[i] = s;
			}
		}`
	fn, err := cc.CompileKernel(src)
	if err != nil {
		t.Fatal(err)
	}
	prog := compileKernel(t, src, machine.Arch{ALUs: 8, MULs: 4, Regs: 256, L2Ports: 2, L2Lat: 2, Clusters: 2}, 4)
	n := int32(29)
	in := make([]int32, n)
	for i := range in {
		in[i] = int32(i*13%97 - 40)
	}
	ref := make([]int32, n)
	got := make([]int32, n)
	if _, err := ir.Interp(fn, ir.NewEnv(n).Bind("in", in).Bind("out", ref)); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(prog, ir.NewEnv(n).Bind("in", in).Bind("out", got)); err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("out[%d] = %d, want %d", i, got[i], ref[i])
		}
	}
}

// TestLatencySemanticsHandBuilt builds a schedule by hand that reads a
// register in the same cycle an in-flight write would land later,
// checking the reads-at-issue / commit-after-latency contract directly.
func TestLatencySemanticsHandBuilt(t *testing.T) {
	f := ir.NewFunc("lat")
	m := f.AddMem(&ir.MemRef{Name: "out", Space: ir.L2, Elem: ir.ElemI32, Size: 4, IsParam: true})
	b := f.NewBlock("entry")
	r0, r1 := f.NewReg(), f.NewReg()
	i0 := ir.NewInstr(ir.OpMov, r0, ir.Imm(1))            // cycle 0: r0 <- 1
	i1 := ir.NewInstr(ir.OpMul, r1, ir.R(r0), ir.Imm(10)) // cycle 1: r1 <- 10 (lands at 3)
	// cycle 2: read r1 BEFORE the mul commits? No: mul latency is 2, so
	// a cycle-3 reader sees 10 and a same-cycle-as-commit reader at
	// cycle 3 sees it too. Schedule an anti-dependent rewrite of r0 at
	// cycle 1 (same cycle as the mul reads it): the mul must still see
	// the old value 1.
	i2 := ir.NewInstr(ir.OpMov, r0, ir.Imm(99)) // cycle 1: r0 <- 99 (anti, same cycle)
	i3 := &ir.Instr{Op: ir.OpStore, Dest: ir.NoReg,
		Args: []ir.Operand{ir.Imm(0), ir.R(r1)}, Mem: m, Elem: ir.ElemI32} // cycle 3: out[0] <- r1
	i4 := &ir.Instr{Op: ir.OpStore, Dest: ir.NoReg,
		Args: []ir.Operand{ir.Imm(1), ir.R(r0)}, Mem: m, Elem: ir.ElemI32} // cycle 3: out[1] <- r0
	ret := &ir.Instr{Op: ir.OpRet, Dest: ir.NoReg}
	for _, in := range []*ir.Instr{i0, i1, i2, i3, i4, ret} {
		b.Append(in)
	}
	arch := machine.Arch{ALUs: 4, MULs: 2, Regs: 64, L2Ports: 2, L2Lat: 2, Clusters: 1}
	prog := &vliw.Program{
		Arch: arch,
		F:    f,
		Blocks: []*vliw.Block{{
			IR:  b,
			Len: 6,
			Ops: []vliw.Op{
				{Instr: i0, Cycle: 0},
				{Instr: i1, Cycle: 1},
				{Instr: i2, Cycle: 1},
				{Instr: i3, Cycle: 3},
				{Instr: i4, Cycle: 3},
				{Instr: ret, Cycle: 5},
			},
		}},
		RegCluster: make([]int, f.NumRegs()),
	}
	out := make([]int32, 4)
	if _, err := Run(prog, ir.NewEnv().Bind("out", out)); err != nil {
		t.Fatal(err)
	}
	// The mul read r0 at issue (cycle 1) before the same-cycle rewrite:
	// r1 = 1*10 = 10 (not 990). The store at 3 sees the committed mul.
	if out[0] != 10 {
		t.Errorf("out[0] = %d, want 10 (mul must read pre-rewrite r0)", out[0])
	}
	if out[1] != 99 {
		t.Errorf("out[1] = %d, want 99", out[1])
	}
}

// TestDynamicOccupancyHandCounted checks the cycle-weighted occupancy
// attribution on a hand-built schedule where every tally can be counted
// on paper. Schedule (arch: 4 ALUs, 2 MULs, 2 L2 ports, L2 lat 2; 6
// cycles):
//
//	cycle 0: mov            -> 1 ALU op
//	cycle 1: mul, mov       -> 2 ALU ops, 1 MUL op
//	cycle 2: (empty)        -> stall
//	cycle 3: store, store   -> 2 L2 accesses × 2 port-cycles each
//	cycle 4: (empty)        -> stall
//	cycle 5: ret            -> no resource
//
// Hand counts: ALUBusy 3, MULBusy 1, L2Busy 4, StallCycles 2;
// ALUOcc 3/24, MULOcc 1/12, L2Occ 4/12 (the bounding resource).
func TestDynamicOccupancyHandCounted(t *testing.T) {
	f := ir.NewFunc("occ")
	m := f.AddMem(&ir.MemRef{Name: "out", Space: ir.L2, Elem: ir.ElemI32, Size: 4, IsParam: true})
	b := f.NewBlock("entry")
	r0, r1 := f.NewReg(), f.NewReg()
	i0 := ir.NewInstr(ir.OpMov, r0, ir.Imm(1))
	i1 := ir.NewInstr(ir.OpMul, r1, ir.R(r0), ir.Imm(10))
	i2 := ir.NewInstr(ir.OpMov, r0, ir.Imm(99))
	i3 := &ir.Instr{Op: ir.OpStore, Dest: ir.NoReg,
		Args: []ir.Operand{ir.Imm(0), ir.R(r1)}, Mem: m, Elem: ir.ElemI32}
	i4 := &ir.Instr{Op: ir.OpStore, Dest: ir.NoReg,
		Args: []ir.Operand{ir.Imm(1), ir.R(r0)}, Mem: m, Elem: ir.ElemI32}
	ret := &ir.Instr{Op: ir.OpRet, Dest: ir.NoReg}
	for _, in := range []*ir.Instr{i0, i1, i2, i3, i4, ret} {
		b.Append(in)
	}
	arch := machine.Arch{ALUs: 4, MULs: 2, Regs: 64, L2Ports: 2, L2Lat: 2, Clusters: 1}
	prog := &vliw.Program{
		Arch: arch,
		F:    f,
		Blocks: []*vliw.Block{{
			IR:  b,
			Len: 6,
			Ops: []vliw.Op{
				{Instr: i0, Cycle: 0},
				{Instr: i1, Cycle: 1},
				{Instr: i2, Cycle: 1},
				{Instr: i3, Cycle: 3},
				{Instr: i4, Cycle: 3},
				{Instr: ret, Cycle: 5},
			},
		}},
		RegCluster: make([]int, f.NumRegs()),
	}
	st, err := Run(prog, ir.NewEnv().Bind("out", make([]int32, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if st.ALUBusy != 3 || st.MULBusy != 1 || st.L1Busy != 0 || st.L2Busy != 4 {
		t.Errorf("busy tallies = ALU %d MUL %d L1 %d L2 %d, want 3 1 0 4",
			st.ALUBusy, st.MULBusy, st.L1Busy, st.L2Busy)
	}
	if st.StallCycles != 2 {
		t.Errorf("stall cycles = %d, want 2", st.StallCycles)
	}
	almost := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	if !almost(st.ALUOcc, 3.0/24) || !almost(st.MULOcc, 1.0/12) ||
		!almost(st.L1Occ, 0) || !almost(st.L2Occ, 4.0/12) {
		t.Errorf("occupancy = ALU %.4f MUL %.4f L1 %.4f L2 %.4f, want 0.1250 0.0833 0 0.3333",
			st.ALUOcc, st.MULOcc, st.L1Occ, st.L2Occ)
	}
	if st.Bound != "l2" {
		t.Errorf("bound = %q, want \"l2\" (highest occupancy)", st.Bound)
	}
}

// TestProfileHandCounted checks Profile on a hand-built schedule where
// every count is done on paper, with no run, then holds Run on the same
// program to the same Stats. Machine: 4 ALUs, 2 MULs, 1 L2 port of
// latency 4, 2 clusters, custom op mac. entry (4 cycles) runs once,
// loop (6 cycles) three times, done (1 cycle) once:
//
//	entry 0: mov r0=3              1 ALU
//	      1: mul r4=r0*2           1 ALU, 1 MUL
//	      2: (empty)               stall
//	      3: br loop
//	loop  0: sub r0-=1, load tab   1 ALU, 1 L1 port-cycle
//	      1: xmov r2=r0 (c0 -> c1) 1 ALU (the source's slot)
//	      2: (empty)               stall
//	      3: mac r3=r1*r2+r0       1 CU, no ALU slot
//	      4: (empty)               stall
//	      5: store out, cbr        4 L2 port-cycles
//	done  0: ret
//
// Cycles and bundles 4+3·6+1 = 23, ops 3+3·6+1 = 22, memory accesses
// 3·2 = 6, stall cycles 1+3·2 = 7; ALU 2+3·2 = 8 of 92 slot-cycles, MUL
// 1 of 46, L1 3 of 23 port-cycles, L2 3·4 = 12 of 23, CU 3 of 46: bound
// by L2.
func TestProfileHandCounted(t *testing.T) {
	set, err := machine.ParseOpCatalog([]string{"mac/3/2:mul $0 $1;add %0 $2"})
	if err != nil {
		t.Fatal(err)
	}
	arch := machine.Arch{ALUs: 4, MULs: 2, Regs: 64, L2Ports: 1, L2Lat: 4, Clusters: 2}.WithOps(set, set.FullMask())
	f := ir.NewFunc("prof")
	out := f.AddMem(&ir.MemRef{Name: "out", Space: ir.L2, Elem: ir.ElemI32, Size: 4, IsParam: true})
	tab := f.AddMem(&ir.MemRef{Name: "tab", Space: ir.L1, Elem: ir.ElemI32, Size: 4})
	entry, loop, done := f.NewBlock("entry"), f.NewBlock("loop"), f.NewBlock("done")
	r0, r1, r2, r3, r4 := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	type placed struct {
		in           *ir.Instr
		cycle, c, sc int
	}
	ops := map[*ir.Block][]placed{
		entry: {
			{ir.NewInstr(ir.OpMov, r0, ir.Imm(3)), 0, 0, 0},
			{ir.NewInstr(ir.OpMul, r4, ir.R(r0), ir.Imm(2)), 1, 0, 0},
			{&ir.Instr{Op: ir.OpBr, Dest: ir.NoReg, Targets: []*ir.Block{loop}}, 3, 0, 0},
		},
		loop: {
			{ir.NewInstr(ir.OpSub, r0, ir.R(r0), ir.Imm(1)), 0, 0, 0},
			{&ir.Instr{Op: ir.OpLoad, Dest: r1, Args: []ir.Operand{ir.Imm(0)}, Mem: tab, Elem: ir.ElemI32}, 0, 0, 0},
			{ir.NewInstr(ir.OpXMov, r2, ir.R(r0)), 1, 1, 0},
			{&ir.Instr{Op: ir.OpFused, Dest: r3, Args: []ir.Operand{ir.R(r1), ir.R(r2), ir.R(r0)}, Fused: set.Spec(0)}, 3, 1, 1},
			{&ir.Instr{Op: ir.OpStore, Dest: ir.NoReg, Args: []ir.Operand{ir.Imm(0), ir.R(r3)}, Mem: out, Elem: ir.ElemI32}, 5, 1, 1},
			{&ir.Instr{Op: ir.OpCBr, Dest: ir.NoReg, Args: []ir.Operand{ir.R(r0)}, Targets: []*ir.Block{loop, done}}, 5, 0, 0},
		},
		done: {{&ir.Instr{Op: ir.OpRet, Dest: ir.NoReg}, 0, 0, 0}},
	}
	prog := &vliw.Program{Arch: arch, F: f, RegCluster: make([]int, f.NumRegs())}
	for _, b := range f.Blocks {
		sb := &vliw.Block{IR: b, Len: map[*ir.Block]int{entry: 4, loop: 6, done: 1}[b]}
		for _, p := range ops[b] {
			b.Append(p.in)
			sb.Ops = append(sb.Ops, vliw.Op{Instr: p.in, Cycle: int32(p.cycle), Cluster: int16(p.c), SrcCluster: int16(p.sc)})
		}
		prog.Blocks = append(prog.Blocks, sb)
	}
	visits := map[string]int64{entry.Name: 1, loop.Name: 3, done.Name: 1}
	want := &Stats{
		Cycles: 23, Ops: 22, Bundles: 23, BlockVisits: visits, MemAccesses: 6,
		ALUBusy: 8, MULBusy: 1, L1Busy: 3, L2Busy: 12, CUBusy: 3, StallCycles: 7,
		ALUOcc: 8.0 / 92, MULOcc: 1.0 / 46, L1Occ: 3.0 / 23, L2Occ: 12.0 / 23, CUOcc: 3.0 / 46,
		Bound: "l2",
	}
	if got := Profile(prog, visits); !reflect.DeepEqual(got, want) {
		t.Errorf("Profile\n got %+v\nwant %+v", got, want)
	}
	got, err := Run(prog, ir.NewEnv().Bind("out", make([]int32, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Run\n got %+v\nwant %+v", got, want)
	}
}

// TestProfileMULOccupancy: on (4 1 64 1 2 2) each cluster has a
// multiplier slot, because MULsPC is at least one, though the machine
// has one MUL. So a cycle in which both clusters multiply keeps every
// multiplier slot the schedule can use busy: MULOcc reads 1 and the run
// is MUL-bound. Dividing by MULs instead read 2.
func TestProfileMULOccupancy(t *testing.T) {
	arch := machine.Arch{ALUs: 4, MULs: 1, Regs: 64, L2Ports: 1, L2Lat: 2, Clusters: 2}
	f := ir.NewFunc("muls")
	b := f.NewBlock("entry")
	sb := &vliw.Block{IR: b, Len: 1}
	for c := 0; c < arch.Clusters; c++ {
		in := ir.NewInstr(ir.OpMul, f.NewReg(), ir.Imm(3), ir.Imm(5))
		b.Append(in)
		sb.Ops = append(sb.Ops, vliw.Op{Instr: in, Cycle: 0, Cluster: int16(c), SrcCluster: int16(c)})
	}
	prog := &vliw.Program{Arch: arch, F: f, RegCluster: make([]int, f.NumRegs()), Blocks: []*vliw.Block{sb}}
	st := Profile(prog, map[string]int64{b.Name: 1})
	if st.MULOcc != 1 || st.ALUOcc != 0.5 || st.Bound != "mul" {
		t.Errorf("two multiplies in one cycle on %v: MULOcc %g, ALUOcc %g, %s-bound; want 1, 0.5, mul-bound",
			arch, st.MULOcc, st.ALUOcc, st.Bound)
	}
}

// TestLatencyViolationVisible: if a schedule reads a result before its
// producer's latency has elapsed, the simulator exposes the stale value
// (no interlocks) — this documents why sched.Validate exists.
func TestLatencyViolationVisible(t *testing.T) {
	f := ir.NewFunc("stale")
	m := f.AddMem(&ir.MemRef{Name: "out", Space: ir.L2, Elem: ir.ElemI32, Size: 2, IsParam: true})
	b := f.NewBlock("entry")
	r0, r1 := f.NewReg(), f.NewReg()
	i0 := ir.NewInstr(ir.OpMul, r0, ir.Imm(6), ir.Imm(7)) // lat 2: lands at cycle 2
	i1 := ir.NewInstr(ir.OpMov, r1, ir.R(r0))             // scheduled too early (cycle 1)
	i2 := &ir.Instr{Op: ir.OpStore, Dest: ir.NoReg,
		Args: []ir.Operand{ir.Imm(0), ir.R(r1)}, Mem: m, Elem: ir.ElemI32}
	ret := &ir.Instr{Op: ir.OpRet, Dest: ir.NoReg}
	for _, in := range []*ir.Instr{i0, i1, i2, ret} {
		b.Append(in)
	}
	arch := machine.Arch{ALUs: 2, MULs: 1, Regs: 64, L2Ports: 1, L2Lat: 2, Clusters: 1}
	prog := &vliw.Program{
		Arch: arch, F: f,
		Blocks: []*vliw.Block{{
			IR: b, Len: 5,
			Ops: []vliw.Op{
				{Instr: i0, Cycle: 0},
				{Instr: i1, Cycle: 1}, // violates mul latency
				{Instr: i2, Cycle: 3},
				{Instr: ret, Cycle: 4},
			},
		}},
		RegCluster: make([]int, f.NumRegs()),
	}
	out := make([]int32, 2)
	if _, err := Run(prog, ir.NewEnv().Bind("out", out)); err != nil {
		t.Fatal(err)
	}
	if out[0] == 42 {
		t.Error("stale read returned the completed value; exposed-latency semantics broken")
	}
}

func TestRunPhysicalErrorPaths(t *testing.T) {
	prog := compileKernel(t, simSrc, machine.Baseline, 1)
	n := int32(4)
	mkEnv := func() *ir.Env {
		return ir.NewEnv(n).
			Bind("x", make([]int32, n)).Bind("y", make([]int32, n)).Bind("out", make([]int32, n))
	}
	// Happy path first.
	if _, err := RunPhysical(prog, mkEnv()); err != nil {
		t.Fatalf("physical run failed: %v", err)
	}
	// Missing assignment.
	saved := prog.PhysAssign
	prog.PhysAssign = nil
	if _, err := RunPhysical(prog, mkEnv()); err == nil {
		t.Error("nil assignment accepted")
	}
	prog.PhysAssign = saved
	// Unbound parameter array.
	if _, err := RunPhysical(prog, ir.NewEnv(n)); err == nil {
		t.Error("unbound parameter accepted")
	}
	// Argument count mismatch.
	if _, err := RunPhysical(prog, ir.NewEnv()); err == nil {
		t.Error("arg count mismatch accepted")
	}
}

func TestRunPhysicalAcrossClusters(t *testing.T) {
	// Exercise cross-cluster moves through physical register files.
	prog := compileKernel(t, simSrc, machine.Arch{ALUs: 8, MULs: 2, Regs: 128, L2Ports: 2, L2Lat: 2, Clusters: 4}, 4)
	n := int32(17)
	x := make([]int32, n)
	y := make([]int32, n)
	for i := range x {
		x[i] = int32(i)
		y[i] = int32(1000 - i)
	}
	out := make([]int32, n)
	if _, err := RunPhysical(prog, ir.NewEnv(n).Bind("x", x).Bind("y", y).Bind("out", out)); err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < n; i++ {
		if want := x[i]*3 + y[i]; out[i] != want {
			t.Errorf("out[%d] = %d, want %d", i, out[i], want)
		}
	}
}

// TestReleasedArenaPinsNothing runs a program with fused ops — so the
// decoded operations carry spec pointers besides the memories, blocks
// and names every run leaves — and drops program and memories. The
// released engine must hold no reference at all (idletest.Pinned walks
// every array to its capacity), and the collector must agree: the
// function, its memory references and the caller's output array are
// collected while the engine sits idle in the list, which it does
// throughout — taking it and handing it back between collections keeps
// the list from ageing it out, and no second one is made.
func TestReleasedArenaPinsNothing(t *testing.T) {
	col := obs.NewCollector()
	obs.Install(col)
	defer obs.Install(nil)
	made := col.Counter("sim.arenas_made")

	var gone idletest.Watch
	var before int64
	func() {
		set, err := machine.ParseOpCatalog([]string{"mac/3/2:mul $0 $1;add %0 $2"})
		if err != nil {
			t.Fatal(err)
		}
		arch := machine.Arch{ALUs: 4, MULs: 2, Regs: 128, L2Ports: 2, L2Lat: 4, Clusters: 2}
		prog := compileKernel(t, `
			kernel macs(int x[], int y[], int out[], int n) {
				int i;
				for (i = 0; i < n; i++) { out[i] = x[i] * y[i] + y[i]; }
			}`, arch.WithOps(set, set.FullMask()), 2)
		fused := 0
		for _, sb := range prog.Blocks {
			for _, op := range sb.Ops {
				if op.Instr.Op == ir.OpFused {
					fused++
				}
			}
		}
		if fused == 0 {
			t.Fatal("no fused op in the program: the test needs one")
		}
		n := int32(16)
		out := make([]int32, n)
		if _, err := Run(prog, ir.NewEnv(n).Bind("x", make([]int32, n)).Bind("y", make([]int32, n)).Bind("out", out)); err != nil {
			t.Fatal(err)
		}
		before = made.Value()
		e := engines.Get() // the one Run just gave back
		e.release()
		for _, path := range idletest.Pinned(e) {
			t.Errorf("the released engine still holds %s", path)
		}
		gone.Add(prog.F, "the function")
		for _, m := range prog.F.Mems {
			gone.Add(m, "memory "+m.Name)
		}
		gone.Add(&out[0], "the caller's output array")
	}()
	for _, name := range gone.Wait(func() { engines.Get().release() }) {
		t.Errorf("an idle engine pins %s", name)
	}
	if made.Value() != before {
		t.Error("the engine did not stay idle in the list while the run was collected")
	}
}
