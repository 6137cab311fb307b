package sched

import (
	"fmt"
	"math"
	"slices"

	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/vliw"
)

// Validate independently re-checks a scheduled program: every
// dependence edge's minimum issue distance is respected, every resource
// bound holds in every cycle, memory ports drain before block ends, and
// the terminator issues last. It builds every dependence skeleton again
// from the IR, never reading one the scheduler made, so scheduler and
// validator can only agree by being right.
//
// What it shares with the scheduler is memory, not results: the call
// borrows an idle arena (GetScratch) for the builder's tables, the index
// from instruction to issue cycle (one map for the program, read out
// into a table by block position), the per-cycle charges and the L2
// issue and port times. Builder.Build recomputes each skeleton from b.Instrs into
// tables it zeroes first and memoizes nothing by block, so which compile
// grew the arena — the one being checked, usually — shows nowhere.
//
// One thing the ops carry is deliberately not checked: that each reads
// and writes registers homed on the cluster it executes on. Shipping
// schedules fail that check, because Placement.RegCluster keeps one
// home per virtual register and a spilled home register redefined in
// several blocks is defined away from it (ROADMAP.md, the differential
// oracle item; TestOperandLocality is the reproducer).
func Validate(prog *vliw.Program) error {
	a := prog.Arch
	sc := GetScratch()
	defer PutScratch(sc)
	if sc.issueOf == nil {
		sc.issueOf = make(map[*ir.Instr]issue)
	}
	for bi, sb := range prog.Blocks {
		if err := validateBlock(int32(bi), sb, a, sc); err != nil {
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

// validateBlock checks sb, block bi of its program. sc.issueOf holds the
// blocks before it, which the tag keeps apart: the map is emptied once a
// program (Scratch.release), not once a block, because emptying costs
// its capacity.
func validateBlock(bi int32, sb *vliw.Block, a machine.Arch, sc *Scratch) error {
	ins := sb.IR.Instrs
	if len(sb.Ops) != len(ins) {
		return fmt.Errorf("%d ops scheduled for %d instructions", len(sb.Ops), len(ins))
	}
	for _, op := range sb.Ops {
		sc.issueOf[op.Instr] = issue{bi, op.Cycle}
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
			if to-from < e.MinDelta {
				return fmt.Errorf("dependence violated: %s@%d -> %s@%d needs >= %d",
					in, from, ins[e.To], to, e.MinDelta)
			}
		}
	}

	// Resources: what each op's class takes (machine.Class.Charges),
	// summed per cycle and issuing cluster (a move's is its source).
	charges := grow(&sc.charges, a.Clusters*sb.Len) // cluster c's cycles at [c*Len, (c+1)*Len)
	l1Busy := -1
	l2 := sc.l2Times[:0] // issue times of L2 accesses, checked greedily

	for _, op := range sb.Ops {
		in, cy := op.Instr, op.Cycle
		if cy < 0 || cy >= sb.Len {
			return fmt.Errorf("%s at cycle %d outside block length %d", in, cy, sb.Len)
		}
		ch := machine.ClassOf(in).Charges()
		charges[op.SrcCluster*sb.Len+cy].Add(ch)
		if ch.L1 > 0 {
			if cy < l1Busy {
				return fmt.Errorf("L1 port busy at cycle %d (free at %d)", cy, l1Busy)
			}
			l1Busy = cy + machine.Occupancy(in, a)
			if l1Busy > sb.Len {
				return fmt.Errorf("L1 access at %d not drained by block end %d", cy, sb.Len)
			}
		}
		if ch.L2 > 0 {
			l2 = append(l2, cy)
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
			for _, slot := range [...]struct {
				what      string
				used, max int
			}{
				{"ALU ops", s.ALU, a.ALUsPC()}, {"MULs", s.MUL, a.MULsPC()}, {"L1 accesses", s.L1, 1},
				{"L2 accesses", s.L2, a.L2PathsPC()}, {"fused ops", s.CU, 1},
			} {
				if slot.used > slot.max {
					return fmt.Errorf("cluster %d issues %d %s at cycle %d (max %d)", c, slot.used, slot.what, cy, slot.max)
				}
			}
		}
		if all.Br > 1 {
			return fmt.Errorf("two branches at cycle %d", cy)
		}
		if all.Bus > a.Buses() {
			return fmt.Errorf("bus oversubscribed at cycle %d: %d > %d", cy, all.Bus, a.Buses())
		}
	}
	// Greedy port feasibility for the p2 interchangeable L2 ports.
	sc.l2Times = l2[:0]
	freeAt := grow(&sc.l2Free, a.L2Ports)
	slices.Sort(l2)
	for _, t := range l2 {
		best := -1
		for i := range freeAt {
			if freeAt[i] <= t && (best < 0 || freeAt[i] > freeAt[best]) {
				best = i
			}
		}
		if best < 0 {
			return fmt.Errorf("L2 ports oversubscribed around cycle %d", t)
		}
		freeAt[best] = t + a.L2Lat
		if freeAt[best] > sb.Len {
			return fmt.Errorf("L2 access at %d not drained by block end %d", t, sb.Len)
		}
	}
	return nil
}
