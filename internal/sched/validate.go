package sched

import (
	"fmt"
	"slices"

	"customfit/internal/ddg"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/vliw"
)

// Validate independently re-checks a scheduled program: every
// dependence edge's minimum issue distance is respected, every resource
// bound holds in every cycle, memory ports drain before block ends, and
// the terminator issues last. It builds the dependence skeletons again
// with a builder of its own, never reading one the scheduler made, so
// scheduler and validator can only agree by being right.
//
// One thing the ops carry is deliberately not checked: that each reads
// and writes registers homed on the cluster it executes on. Shipping
// schedules fail that check, because Placement.RegCluster keeps one
// home per virtual register and a spilled home register redefined in
// several blocks is defined away from it (ROADMAP.md, the differential
// oracle item; TestOperandLocality is the reproducer).
func Validate(prog *vliw.Program) error {
	a := prog.Arch
	var bd ddg.Builder
	for _, sb := range prog.Blocks {
		if err := validateBlock(sb, a, &bd); err != nil {
			return fmt.Errorf("validate %s/%s: %w", prog.F.Name, sb.IR.Name, err)
		}
	}
	return nil
}

func validateBlock(sb *vliw.Block, a machine.Arch, bd *ddg.Builder) error {
	ins := sb.IR.Instrs
	if len(sb.Ops) != len(ins) {
		return fmt.Errorf("%d ops scheduled for %d instructions", len(sb.Ops), len(ins))
	}
	cycleOf := make(map[*ir.Instr]int, len(sb.Ops))
	for _, op := range sb.Ops {
		cycleOf[op.Instr] = op.Cycle
	}

	// Dependences.
	sk := bd.Build(sb.IR, a)
	for i, in := range ins {
		from, okF := cycleOf[in]
		for _, e := range sk.Succs(i) {
			to, okT := cycleOf[ins[e.To]]
			if !okF || !okT {
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
	perCluster := make([][]machine.Charges, a.Clusters)
	for c := range perCluster {
		perCluster[c] = make([]machine.Charges, sb.Len)
	}
	l1Busy := -1
	l2Busy := make([]int, 0, 64) // issue times of L2 accesses, checked greedily

	for _, op := range sb.Ops {
		in, cy := op.Instr, op.Cycle
		if cy < 0 || cy >= sb.Len {
			return fmt.Errorf("%s at cycle %d outside block length %d", in, cy, sb.Len)
		}
		ch := machine.ClassOf(in).Charges()
		perCluster[op.SrcCluster][cy].Add(ch)
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
			l2Busy = append(l2Busy, cy)
		}
		if in.Op.IsTerminator() && cy != sb.Len-1 {
			return fmt.Errorf("terminator at cycle %d, block length %d", cy, sb.Len)
		}
	}
	for cy := 0; cy < sb.Len; cy++ {
		var all machine.Charges
		for c := 0; c < a.Clusters; c++ {
			s := perCluster[c][cy]
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
	freeAt := make([]int, a.L2Ports)
	slices.Sort(l2Busy)
	for _, t := range l2Busy {
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
