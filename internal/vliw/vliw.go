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

// Op is one operation placed in the schedule.
type Op struct {
	Instr *ir.Instr
	Cycle int // issue cycle within the block
	// Cluster is the executing cluster (for XMov: the destination
	// cluster whose register file receives the value).
	Cluster int
	// SrcCluster is the cluster whose ALU issue slot an XMov occupies;
	// equal to Cluster for every other operation.
	SrcCluster int
}

// Block is the schedule of one basic block.
type Block struct {
	IR  *ir.Block
	Len int  // cycles per execution of this block
	Ops []Op // sorted by (Cycle, Cluster)
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
		byCycle := map[int][]Op{}
		for _, op := range blk.Ops {
			byCycle[op.Cycle] = append(byCycle[op.Cycle], op)
		}
		for c := 0; c < blk.Len; c++ {
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

// Utilization summarizes how busy each resource class is across the
// program image (static slot occupancy, weighted by nothing — per-
// bundle averages over all blocks).
type Utilization struct {
	// ALU is the fraction of ALU issue slots filled (including
	// multiplies and the source side of inter-cluster moves).
	ALU float64
	// MUL is the fraction of multiply-capable slots used by multiplies.
	MUL float64
	// L1 and L2 are the fraction of bundles issuing an access to each
	// memory level.
	L1, L2 float64
	// Bus is the fraction of global bus slots used by inter-cluster
	// moves (0 on single-cluster machines).
	Bus float64
	// Moves is the fraction of all operations that are inter-cluster
	// copies — the clustering tax.
	Moves float64
}

// Utilization computes static resource occupancy.
func (p *Program) Utilization() Utilization {
	var u Utilization
	bundles := p.BundleCount()
	if bundles == 0 {
		return u
	}
	aluSlots := float64(bundles * p.Arch.ALUs)
	mulSlots := float64(bundles * p.Arch.MULs)
	busSlots := float64(bundles * p.Arch.Buses())
	var issued machine.Charges
	for _, sb := range p.Blocks {
		for _, op := range sb.Ops {
			issued.Add(machine.ClassOf(op.Instr).Charges())
		}
	}
	u.ALU = float64(issued.ALU) / aluSlots
	if mulSlots > 0 {
		u.MUL = float64(issued.MUL) / mulSlots
	}
	u.L1 = float64(issued.L1) / float64(bundles)
	u.L2 = float64(issued.L2) / float64(bundles)
	if busSlots > 0 {
		u.Bus = float64(issued.Bus) / busSlots
	}
	if ops := p.OpCount(); ops > 0 {
		u.Moves = float64(issued.Bus) / float64(ops) // a move is what takes a bus
	}
	return u
}
