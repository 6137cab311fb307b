// Package vliw defines the scheduled-program representation produced by
// the compiler backend: per-block cycle-by-cycle operation placements
// on a concrete clustered architecture, plus register-pressure and
// spill metadata the explorer consumes.
package vliw

import (
	"fmt"
	"sort"
	"strings"

	"customfit/internal/ir"
	"customfit/internal/machine"
)

// Op is one operation placed in the schedule: 16 bytes, the pointer
// and three fields at their natural width (the scheduler already keeps
// a block's cycles in int32, and a machine has at most 16 clusters).
type Op struct {
	Instr *ir.Instr
	Cycle int32 // issue cycle within the block
	// Cluster is the executing cluster (for XMov: the destination
	// cluster whose register file receives the value).
	Cluster int16
	// SrcCluster is the cluster whose ALU issue slot an XMov occupies;
	// equal to Cluster for every other operation.
	SrcCluster int16
}

// Block is the schedule of one basic block.
type Block struct {
	IR  *ir.Block
	Len int // cycles per execution of this block
	// Ops are in cycle order: the scheduler emits a block cycle by
	// cycle, in no cluster order within a cycle.
	Ops []Op
	// SchedPeak is the scheduler's own per-cluster peak live-value
	// count while building this block (diagnostics; the allocator's
	// exact measurement is authoritative).
	SchedPeak []int
	// Forced counts pressure-deadlock placements that exceeded the
	// scheduler's live-value budget.
	Forced int
}

// Program is a fully scheduled kernel for one architecture.
type Program struct {
	Arch machine.Arch
	F    *ir.Func
	// Blocks is parallel to F.Blocks.
	Blocks []*Block
	// RegCluster maps each virtual register to its home cluster.
	RegCluster []int
	// Spills is the number of virtual registers the allocator had to
	// spill (the paper's unroll-until-spill signal).
	Spills int
	// MaxLive is the per-cluster peak register pressure.
	MaxLive []int
	// PhysAssign maps each virtual register to a physical register
	// within its cluster (-1 when never materialized).
	PhysAssign []int
	// Blame counts, per virtual register, how many scheduler pressure
	// stalls the register was occupying a saturated cluster for. The
	// compile driver spills the most-blamed registers first.
	Blame []int
}

// BlockFor returns the schedule of an IR block.
func (p *Program) BlockFor(b *ir.Block) *Block {
	for _, sb := range p.Blocks {
		if sb.IR == b {
			return sb
		}
	}
	return nil
}

// StaticCycles computes total executed cycles given per-block visit
// counts (obtained once per kernel from the IR interpreter; block visit
// counts do not depend on the architecture).
func (p *Program) StaticCycles(visits map[string]int64) int64 {
	var total int64
	for _, sb := range p.Blocks {
		total += int64(sb.Len) * visits[sb.IR.Name]
	}
	return total
}

// BundleCount returns the total number of instruction words (cycles
// summed over blocks) in the program image.
func (p *Program) BundleCount() int {
	n := 0
	for _, sb := range p.Blocks {
		n += sb.Len
	}
	return n
}

// OpCount returns the number of scheduled operations.
func (p *Program) OpCount() int {
	n := 0
	for _, sb := range p.Blocks {
		n += len(sb.Ops)
	}
	return n
}

// String renders the schedule as readable VLIW assembly, one bundle per
// line with cluster-tagged slots.
func (p *Program) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "; kernel %s on %s  (%d bundles, %d ops)\n",
		p.F.Name, p.Arch, p.BundleCount(), p.OpCount())
	for _, blk := range p.Blocks {
		fmt.Fprintf(&sb, "%s:  ; %d cycles\n", blk.IR.Name, blk.Len)
		byCycle := map[int32][]Op{}
		for _, op := range blk.Ops {
			byCycle[op.Cycle] = append(byCycle[op.Cycle], op)
		}
		for c := int32(0); c < int32(blk.Len); c++ {
			ops := byCycle[c]
			sort.Slice(ops, func(i, j int) bool { return ops[i].Cluster < ops[j].Cluster })
			fmt.Fprintf(&sb, "  %4d:", c)
			if len(ops) == 0 {
				sb.WriteString("  nop")
			}
			for _, op := range ops {
				fmt.Fprintf(&sb, "  c%d{%s}", op.Cluster, op.Instr)
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// IPC returns the achieved operations-per-bundle across the whole
// program image (a static ILP measure).
func (p *Program) IPC() float64 {
	if p.BundleCount() == 0 {
		return 0
	}
	return float64(p.OpCount()) / float64(p.BundleCount())
}
