package sched

import (
	"fmt"

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

	// Resources.
	type slot struct{ alu, mul, l1, l2, br, cu int }
	use := make([]slot, sb.Len)
	useBus := make([]int, sb.Len)
	perCluster := make([][]slot, a.Clusters)
	for c := range perCluster {
		perCluster[c] = make([]slot, sb.Len)
	}
	l1Busy := -1
	l2Busy := make([]int, 0, 64) // issue times of L2 accesses, checked greedily

	for _, op := range sb.Ops {
		in, cy := op.Instr, op.Cycle
		if cy < 0 || cy >= sb.Len {
			return fmt.Errorf("%s at cycle %d outside block length %d", in, cy, sb.Len)
		}
		switch in.Op {
		case ir.OpXMov:
			perCluster[op.SrcCluster][cy].alu++
			useBus[cy]++
		case ir.OpMul:
			perCluster[op.Cluster][cy].alu++
			perCluster[op.Cluster][cy].mul++
		case ir.OpLoad, ir.OpStore:
			if in.Mem.Space == ir.L1 {
				perCluster[op.Cluster][cy].l1++
				if cy < l1Busy {
					return fmt.Errorf("L1 port busy at cycle %d (free at %d)", cy, l1Busy)
				}
				l1Busy = cy + machine.L1Occupancy
				if l1Busy > sb.Len {
					return fmt.Errorf("L1 access at %d not drained by block end %d", cy, sb.Len)
				}
			} else {
				perCluster[op.Cluster][cy].l2++
				l2Busy = append(l2Busy, cy)
			}
		case ir.OpBr, ir.OpCBr, ir.OpRet:
			use[cy].br++
			if cy != sb.Len-1 {
				return fmt.Errorf("terminator at cycle %d, block length %d", cy, sb.Len)
			}
		case ir.OpFused:
			// Fused ops issue on the cluster's custom unit (pipelined,
			// one per cycle), not on an ALU slot — mirroring resources.reserve.
			perCluster[op.Cluster][cy].cu++
		case ir.OpNop:
		default:
			perCluster[op.Cluster][cy].alu++
		}
	}
	for cy := 0; cy < sb.Len; cy++ {
		if use[cy].br > 1 {
			return fmt.Errorf("two branches at cycle %d", cy)
		}
		if useBus[cy] > a.Buses() {
			return fmt.Errorf("bus oversubscribed at cycle %d: %d > %d", cy, useBus[cy], a.Buses())
		}
		for c := 0; c < a.Clusters; c++ {
			s := perCluster[c][cy]
			if s.alu > a.ALUsPC() {
				return fmt.Errorf("cluster %d issues %d ALU ops at cycle %d (max %d)", c, s.alu, cy, a.ALUsPC())
			}
			if s.mul > a.MULsPC() {
				return fmt.Errorf("cluster %d issues %d MULs at cycle %d (max %d)", c, s.mul, cy, a.MULsPC())
			}
			if s.l1 > 1 {
				return fmt.Errorf("cluster %d issues %d L1 accesses at cycle %d", c, s.l1, cy)
			}
			if s.l2 > a.L2PathsPC() {
				return fmt.Errorf("cluster %d issues %d L2 accesses at cycle %d (max %d)", c, s.l2, cy, a.L2PathsPC())
			}
			if s.cu > 1 {
				return fmt.Errorf("cluster %d issues %d fused ops at cycle %d (custom unit is 1/cycle)", c, s.cu, cy)
			}
		}
	}
	// Greedy port feasibility for the p2 interchangeable L2 ports.
	freeAt := make([]int, a.L2Ports)
	sortInts(l2Busy)
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

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
