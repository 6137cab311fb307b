package sched

import (
	"fmt"
	"math"

	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/vliw"
)

// Validate independently re-checks a scheduled program: every
// dependence edge's minimum issue distance is respected, each block's
// ops are listed in cycle order (the vliw.Block contract that
// sim.Profile and the simulator's decode rely on), every bound of
// machine.Capacity holds in every cycle, memory ports drain before
// block ends, and the terminator issues last. It builds every
// dependence skeleton again from the IR, never reading one the
// scheduler made, so scheduler and validator can only agree by being
// right.
//
// What it shares with the scheduler is memory, not results: the call
// borrows an idle arena (GetScratch) for the builder's tables, the index
// from instruction to issue cycle (one map for the program, read out
// into a table by block position), the per-cycle charges and the memory
// ports' free times. Builder.Build recomputes each skeleton from
// b.Instrs into tables it zeroes first and memoizes nothing by block,
// so which compile grew the arena — the one being checked, usually —
// shows nowhere.
//
// One thing the ops carry is deliberately not checked: that each reads
// and writes registers homed on the cluster it executes on. Shipping
// schedules fail that check, because Placement.RegCluster keeps one
// home per virtual register and a spilled home register redefined in
// several blocks is defined away from it (ROADMAP.md, the differential
// oracle item; TestOperandLocality is the reproducer).
func Validate(prog *vliw.Program) error {
	a := prog.Arch
	k := a.Capacity()
	sc := GetScratch()
	defer PutScratch(sc)
	if sc.issueOf == nil {
		sc.issueOf = make(map[*ir.Instr]issue)
	}
	for bi, sb := range prog.Blocks {
		if err := validateBlock(int32(bi), sb, a, &k, sc); err != nil {
			return fmt.Errorf("validate %s/%s: %w", prog.F.Name, sb.IR.Name, err)
		}
	}
	return nil
}

// issue is where a schedule put an instruction: the block (by position
// in the program) whose ops name it, and the cycle.
type issue struct {
	blk   int32
	cycle int
}

// unscheduled stands in the cycle table for an instruction the block's
// ops do not name.
const unscheduled = math.MinInt

// validateBlock checks sb, block bi of its program, on a machine of
// capacity k. sc.issueOf holds the blocks before it, which the tag keeps
// apart: the map is emptied once a program (Scratch.release), not once a
// block, because emptying costs its capacity.
func validateBlock(bi int32, sb *vliw.Block, a machine.Arch, k *machine.Capacity, sc *Scratch) error {
	ins := sb.IR.Instrs
	if len(sb.Ops) != len(ins) {
		return fmt.Errorf("%d ops scheduled for %d instructions", len(sb.Ops), len(ins))
	}
	for _, op := range sb.Ops {
		sc.issueOf[op.Instr] = issue{bi, int(op.Cycle)}
	}
	cycles := grow(&sc.cycles, len(ins))
	for i, in := range ins {
		cycles[i] = unscheduled
		if at, ok := sc.issueOf[in]; ok && at.blk == bi {
			cycles[i] = at.cycle
		}
	}

	// Dependences.
	sk := sc.skel.Build(sb.IR, a)
	for i, in := range ins {
		from := cycles[i]
		for _, e := range sk.Succs(i) {
			to := cycles[e.To]
			if from == unscheduled || to == unscheduled {
				return fmt.Errorf("instruction missing from schedule")
			}
			if to-from < int(e.MinDelta) {
				return fmt.Errorf("dependence violated: %s@%d -> %s@%d needs >= %d",
					in, from, ins[e.To], to, e.MinDelta)
			}
		}
	}

	// Resources: what each op's class takes (machine.Class.Charges),
	// summed per cycle and issuing cluster (a move's is its source),
	// against what a cluster and the machine hold per cycle; and the
	// port each memory access holds, taken in issue order from its
	// level's pool (L1's ports, then L2's, in one table).
	charges := grow(&sc.charges, a.Clusters*sb.Len) // cluster c's cycles at [c*Len, (c+1)*Len)
	ports := grow(&sc.portFree, k.Machine[machine.L1]+k.Machine[machine.L2])
	pools := [...][]int{machine.L1: ports[:k.Machine[machine.L1]], machine.L2: ports[k.Machine[machine.L1]:]}
	for i, op := range sb.Ops {
		in, cy := op.Instr, int(op.Cycle)
		if cy < 0 || cy >= sb.Len {
			return fmt.Errorf("%s at cycle %d outside block length %d", in, cy, sb.Len)
		}
		if i > 0 && cy < int(sb.Ops[i-1].Cycle) {
			prev := sb.Ops[i-1]
			return fmt.Errorf("ops not in cycle order: %s at cycle %d listed after %s at cycle %d", in, cy, prev.Instr, prev.Cycle)
		}
		ch := machine.ClassOf(in).Charges()
		charges[int(op.SrcCluster)*sb.Len+cy].Add(ch)
		for r := machine.L1; r <= machine.L2; r++ {
			if ch[r] > 0 {
				if err := takePort(pools[r], r, cy, k.Hold[r], sb.Len); err != nil {
					return err
				}
			}
		}
		if in.Op.IsTerminator() && cy != sb.Len-1 {
			return fmt.Errorf("terminator at cycle %d, block length %d", cy, sb.Len)
		}
	}
	for cy := 0; cy < sb.Len; cy++ {
		var all machine.Charges
		for c := 0; c < a.Clusters; c++ {
			s := charges[c*sb.Len+cy]
			all.Add(s)
			for r, n := range s {
				if n > k.Cluster[r] {
					return fmt.Errorf("cluster %d issues %d %s at cycle %d (max %d)", c, n, machine.Resource(r), cy, k.Cluster[r])
				}
			}
		}
		for r, n := range all {
			if n > k.Machine[r] {
				return fmt.Errorf("the machine issues %d %s at cycle %d (max %d)", n, machine.Resource(r), cy, k.Machine[r])
			}
		}
	}
	return nil
}

// takePort holds a port of pool, the free times of resource r's ports,
// for an access issued at cycle cy, from then until hold cycles later,
// which must be within the block. Accesses come in issue order and
// hold their ports alike, so any free port is as good as another.
func takePort(pool []int, r machine.Resource, cy, hold, blockLen int) error {
	for i, free := range pool {
		if free <= cy {
			if pool[i] = cy + hold; pool[i] > blockLen {
				return fmt.Errorf("%s access at %d not drained by block end %d", r, cy, blockLen)
			}
			return nil
		}
	}
	return fmt.Errorf("%s port busy at cycle %d", r, cy)
}
