package sched

import (
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

func TestValidateCatchesResourceOversubscription(t *testing.T) {
	p := compileValid(t)
	lb := loopBlock(p)
	// Pile every ALU op of the block into cycle of the first op while
	// keeping dependence order intact is hard; instead clone one op
	// several times into the same cycle to blow the ALU limit.
	var alu *vliw.Op
	for i := range lb.Ops {
		if lb.Ops[i].Instr.Op.IsALU() {
			alu = &lb.Ops[i]
			break
		}
	}
	if alu == nil {
		t.Skip("no ALU op")
	}
	for k := 0; k < 8; k++ {
		dup := *alu
		dup.Instr = dup.Instr.Clone()
		lb.Ops = append(lb.Ops, dup)
	}
	if err := Validate(p); err == nil {
		t.Fatal("oversubscribed schedule validated")
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
				if in.Op != ir.OpXMov && a.IsReg() && prog.RegCluster[a.Reg] != op.Cluster {
					t.Errorf("%s/%s: %s on cluster %d reads %s, homed on %d",
						prog.F.Name, sb.IR.Name, in, op.Cluster, a.Reg, prog.RegCluster[a.Reg])
				}
			}
			if in.Op.HasDest() && prog.RegCluster[in.Dest] != op.Cluster {
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
