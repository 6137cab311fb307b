package sched

import (
	"slices"
	"strings"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/cc"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/opt"
	"customfit/internal/vliw"
)

// compileValid returns a known-good program to corrupt.
func compileValid(t *testing.T) *vliw.Program {
	t.Helper()
	fn, err := cc.CompileKernel(`
		kernel v(int in[], int out[], int n) {
			int i;
			for (i = 0; i < n; i++) {
				out[i] = in[i] * 5 + (in[i] >> 2);
			}
		}`)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := opt.Prepare(fn, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(prepared, machine.Arch{ALUs: 4, MULs: 2, Regs: 128, L2Ports: 2, L2Lat: 4, Clusters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(res.Prog); err != nil {
		t.Fatalf("clean program invalid: %v", err)
	}
	return res.Prog
}

// loopBlock returns the largest scheduled block (the unrolled loop).
func loopBlock(p *vliw.Program) *vliw.Block {
	var best *vliw.Block
	for _, sb := range p.Blocks {
		if best == nil || len(sb.Ops) > len(best.Ops) {
			best = sb
		}
	}
	return best
}

func TestValidateCatchesDependenceViolation(t *testing.T) {
	p := compileValid(t)
	lb := loopBlock(p)
	// Force a consumer to issue at cycle 0 (before its producers).
	moved := false
	for i := range lb.Ops {
		if lb.Ops[i].Cycle > 2 && lb.Ops[i].Instr.Op.HasDest() {
			lb.Ops[i].Cycle = 0
			moved = true
			break
		}
	}
	if !moved {
		t.Skip("no candidate op")
	}
	err := Validate(p)
	if err == nil {
		t.Fatal("corrupted schedule validated")
	}
	if !strings.Contains(err.Error(), "violated") && !strings.Contains(err.Error(), "issues") &&
		!strings.Contains(err.Error(), "busy") {
		t.Errorf("unexpected error kind: %v", err)
	}
}

// TestValidateCatchesResourceOversubscription checks the capacity
// Validate holds a schedule to, on hand-built one-block programs for
// (4 1 64 1 2 2), whose two clusters have a multiplier each though the
// machine has one MUL, and which has one L1 port.
func TestValidateCatchesResourceOversubscription(t *testing.T) {
	arch := machine.Arch{ALUs: 4, MULs: 1, Regs: 64, L2Ports: 1, L2Lat: 2, Clusters: 2}
	for _, c := range []struct {
		name    string
		op      ir.Op
		cluster [2]int // where the two ops issue, both at cycle 0
		want    string // "" for valid
	}{
		{"a multiply on each cluster", ir.OpMul, [2]int{0, 1}, ""},
		{"two multiplies on one cluster", ir.OpMul, [2]int{1, 1}, "cluster 1 issues 2 mul at cycle 0 (max 1)"},
		{"two L1 loads on two clusters", ir.OpLoad, [2]int{0, 1}, "l1 port busy at cycle 0"},
	} {
		f := ir.NewFunc("hand")
		tab := f.AddMem(&ir.MemRef{Name: "tab", Space: ir.L1, Elem: ir.ElemI32, Size: 4})
		b := f.NewBlock("entry")
		sb := &vliw.Block{IR: b, Len: 3}
		for _, cl := range c.cluster {
			in := ir.NewInstr(ir.OpMul, f.NewReg(), ir.Imm(3), ir.Imm(5))
			if c.op == ir.OpLoad {
				in = &ir.Instr{Op: ir.OpLoad, Dest: f.NewReg(), Args: []ir.Operand{ir.Imm(0)}, Mem: tab, Elem: ir.ElemI32}
			}
			b.Append(in)
			sb.Ops = append(sb.Ops, vliw.Op{Instr: in, Cluster: int16(cl), SrcCluster: int16(cl)})
		}
		ret := &ir.Instr{Op: ir.OpRet, Dest: ir.NoReg}
		b.Append(ret)
		sb.Ops = append(sb.Ops, vliw.Op{Instr: ret, Cycle: int32(sb.Len - 1)})
		prog := &vliw.Program{Arch: arch, F: f, RegCluster: make([]int, f.NumRegs()), Blocks: []*vliw.Block{sb}}
		switch err := Validate(prog); {
		case err == nil && c.want != "":
			t.Errorf("%s: validated, want %q", c.name, c.want)
		case err != nil && (c.want == "" || !strings.HasSuffix(err.Error(), c.want)):
			t.Errorf("%s: Validate = %v, want %q", c.name, err, c.want)
		}
	}
}

func TestValidateCatchesEarlyTerminator(t *testing.T) {
	p := compileValid(t)
	lb := loopBlock(p)
	for i := range lb.Ops {
		if lb.Ops[i].Instr.Op.IsTerminator() {
			lb.Ops[i].Cycle = 0
			break
		}
	}
	if err := Validate(p); err == nil {
		t.Fatal("early terminator validated")
	}
}

func TestValidateCatchesMissingOp(t *testing.T) {
	p := compileValid(t)
	lb := loopBlock(p)
	lb.Ops = lb.Ops[:len(lb.Ops)-1]
	if err := Validate(p); err == nil {
		t.Fatal("schedule with missing op validated")
	}
}

// TestValidateChecksCycleOrder: a block lists its ops in cycle order
// (vliw.Block), which sim.Profile's stall count and the simulator's
// decode rely on, and Validate says so when it does not, naming the
// block, instead of reading the order as a port conflict. F compiled
// for the baseline, each block's ops listed backwards, is the same
// schedule out of order.
func TestValidateChecksCycleOrder(t *testing.T) {
	fn, err := bench.ByName("F").Compile()
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := opt.Prepare(fn, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(prepared, machine.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	prog := res.Prog
	if err := Validate(prog); err != nil {
		t.Fatalf("clean program invalid: %v", err)
	}
	for i, sb := range prog.Blocks {
		backwards := *sb
		backwards.Ops = slices.Clone(sb.Ops)
		slices.Reverse(backwards.Ops)
		prog.Blocks[i] = &backwards
	}
	err = Validate(prog)
	if err == nil || !strings.HasPrefix(err.Error(), "validate "+prog.F.Name+"/") ||
		!strings.Contains(err.Error(), "not in cycle order") {
		t.Errorf("Validate of the blocks listed backwards = %v, want the block named and its order refused", err)
	}
}

// TestOperandLocality is the check Validate does not make (see its
// comment), kept as the reproducer of why: every op but an
// inter-cluster move should read registers homed on the cluster it
// executes on, and every op write one. It fails on shipping schedules —
// over the benchmark's 143 one-shot cells (11 kernels x 13 paper
// machines at unroll 1 or 2) 17 reads and 17 writes in 10 cells, this
// one first: `v1 = mov 0` in fir7x7/entry0 executes on cluster 1 and is
// stored to its spill slot from there, while RegCluster[v1] says 2. v1
// is a home register that got spilled: each block that redefines it
// then defines a short-lived value, placed wherever that block's
// balance puts it, but Placement.RegCluster keeps one home per virtual
// register and the last definition partitioned wins. The schedules are
// right (the simulator, which moves values by register and not by
// cluster, verifies them); the pressure accounting reads a stale home.
// A per-definition home changes that accounting and with it schedules,
// so it takes a sched.Fingerprint() bump: ROADMAP.md, differential
// oracle item.
func TestOperandLocality(t *testing.T) {
	t.Skip("known: RegCluster keeps one home per register, spilled home registers are defined away from it (ROADMAP.md)")
	fn, err := bench.ByName("A").Compile()
	if err != nil {
		t.Fatal(err)
	}
	g, err := opt.Prepare(fn, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(g, machine.Arch{ALUs: 8, MULs: 2, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 4})
	if err != nil {
		t.Fatal(err)
	}
	prog := res.Prog
	for _, sb := range prog.Blocks {
		for _, op := range sb.Ops {
			in := op.Instr
			for _, a := range in.Args {
				if in.Op != ir.OpXMov && a.IsReg() && prog.RegCluster[a.Reg] != int(op.Cluster) {
					t.Errorf("%s/%s: %s on cluster %d reads %s, homed on %d",
						prog.F.Name, sb.IR.Name, in, op.Cluster, a.Reg, prog.RegCluster[a.Reg])
				}
			}
			if in.Op.HasDest() && prog.RegCluster[in.Dest] != int(op.Cluster) {
				t.Errorf("%s/%s: %s on cluster %d writes %s, homed on %d",
					prog.F.Name, sb.IR.Name, in, op.Cluster, in.Dest, prog.RegCluster[in.Dest])
			}
		}
	}
}

// TestRepeatedOperandNeverDies reproduces an accounting slip in the
// scheduler's live-value count: pressure.place counts a register's uses
// down once per argument occurrence but looks for its death at the
// first occurrence only, so a value whose last reader names it twice
// (v*v) is never seen to die. It stays in the count to the end of the
// block: the scheduler's peak runs past the allocator's exact one, and
// on a starved machine the throttle holds back candidates that fit. No
// benchmark kernel contains such an instruction at unroll 1 or 2;
// generated and user kernels do. Counting it right changes schedules
// (and with them sched.Fingerprint() and every cached result), so it is
// pinned here until a change that may do that (ROADMAP.md, backend v2).
func TestRepeatedOperandNeverDies(t *testing.T) {
	t.Skip("known: a register last read twice by one instruction never dies in the scheduler's count (ROADMAP.md)")
	fn, err := cc.CompileKernel(`
		kernel squares(int in[], int out[], int n) {
			int i;
			for (i = 0; i < n; i++) {
				int v;
				v = in[i];
				v = v * v; v = v * v; v = v * v; v = v * v;
				v = v * v; v = v * v; v = v * v; v = v * v;
				out[i] = v;
			}
		}`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := opt.Prepare(fn, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(g, machine.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	for _, sb := range res.Prog.Blocks {
		if sb.SchedPeak[0] > res.Prog.MaxLive[0] {
			t.Errorf("%s: the scheduler counted %d live values at once, the allocator at most %d over the whole kernel",
				sb.IR.Name, sb.SchedPeak[0], res.Prog.MaxLive[0])
		}
	}
}
