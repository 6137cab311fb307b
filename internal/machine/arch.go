// Package machine models the paper's parameterized clustered-VLIW
// architecture template: its free parameters (Table 4), derived
// parameters (Table 5), datapath cost model (Table 6), cycle-speed
// derating model (Table 7), and the enumerated design space the
// explorer searches.
package machine

import (
	"fmt"
)

// Arch is one point in the design space, described by the paper's
// 6-tuple (a, m, r, p2, l2, c).
type Arch struct {
	ALUs     int // a: total integer ALUs, 1..16
	MULs     int // m: ALUs capable of integer multiply, a/4..a/2, >= 1
	Regs     int // r: total registers across all clusters, 64..512
	L2Ports  int // p2: parallel accesses to Level-2 memory, 1..4
	L2Lat    int // l2: Level-2 access latency in cycles, 2..8, non-pipelined
	Clusters int // c: number of clusters, 1..16

	// MinMax extends the ALU repertoire with single-cycle signed
	// min/max operations — the opcode-choice axis the paper's
	// methodology supports but its experiment deliberately excluded
	// ("the only choice presented in this experiment is whether or not
	// a given ALU is capable of integer multiply"). Not part of the
	// standard design space; see the repertoire-extension experiment in
	// EXPERIMENTS.md.
	MinMax bool

	// Ops extends the template with application-defined custom
	// operations: fused instruction clusters mined from the kernels'
	// DDGs (internal/ops), executed on one dedicated custom unit per
	// cluster. The zero value is the classic 6-tuple machine; because
	// OpSets are content-interned, Arch remains comparable (== and map
	// keys keep working) with this field populated. Omitted from JSON
	// when empty so op-free results stay byte-identical to the 6-tuple
	// era. See docs/CUSTOMOPS.md.
	Ops OpConfig `json:",omitzero"`
}

// Baseline is the paper's reference machine: 1 IMUL-capable ALU, 64
// registers, 1 L1 reference and 1 L2 reference (8-cycle latency), in a
// single cluster. Cost and cycle models are normalized so this machine
// costs 1.0 and has derating 1.0.
var Baseline = Arch{ALUs: 1, MULs: 1, Regs: 64, L2Ports: 1, L2Lat: 8, Clusters: 1}

// Fixed machine characteristics shared by every architecture in the
// template (paper Table 4).
const (
	LatALU = 1 // all integer ALU operations
	LatMUL = 2 // integer multiply, pipelined
	// LatL1 is the Level-1 (global/scratch) memory latency. The paper
	// gives L1 a "fixed throughput for all the experiments"; we model it
	// pipelined at one access per cycle with 3-cycle latency — the only
	// reading under which the paper's published Floyd-Steinberg and
	// IDCT speedups are reachable at all (see EXPERIMENTS.md).
	LatL1 = 3
	// L1Occupancy is how long an access holds the single L1 port.
	L1Occupancy = 1
	LatMove     = 2 // inter-cluster move across the global connections
	// MaxBuses caps the global inter-cluster connections: the template
	// shares a fixed set of global wires (as the Multiflow TRACE did),
	// so heavily clustered machines do not get free all-to-all
	// bandwidth.
	MaxBuses = 4
)

// String renders the paper's architecture tuple, e.g. "(8 2 128 1 4 4)";
// op-extended machines carry a "+ops:<hexmask>" suffix.
func (a Arch) String() string {
	s := fmt.Sprintf("(%d %d %d %d %d %d)", a.ALUs, a.MULs, a.Regs, a.L2Ports, a.L2Lat, a.Clusters)
	if !a.Ops.Empty() {
		s += fmt.Sprintf("+ops:%x", a.Ops.Mask)
	}
	return s
}

// Validate checks that the architecture is well-formed and within the
// template's parameter ranges.
func (a Arch) Validate() error {
	switch {
	case a.ALUs < 1 || a.ALUs > 16:
		return fmt.Errorf("machine: ALUs %d out of range [1,16]", a.ALUs)
	case a.MULs < 1 || a.MULs > a.ALUs:
		return fmt.Errorf("machine: MULs %d out of range [1,%d]", a.MULs, a.ALUs)
	case a.Regs < 16 || a.Regs > 1024:
		return fmt.Errorf("machine: Regs %d out of range [16,1024]", a.Regs)
	case a.L2Ports < 1 || a.L2Ports > 4:
		return fmt.Errorf("machine: L2Ports %d out of range [1,4]", a.L2Ports)
	case a.L2Lat < 2 || a.L2Lat > 8:
		return fmt.Errorf("machine: L2Lat %d out of range [2,8]", a.L2Lat)
	case a.Clusters < 1 || a.Clusters > 16:
		return fmt.Errorf("machine: Clusters %d out of range [1,16]", a.Clusters)
	case a.Clusters > a.ALUs:
		return fmt.Errorf("machine: %d clusters exceed %d ALUs", a.Clusters, a.ALUs)
	case a.ALUs%a.Clusters != 0:
		return fmt.Errorf("machine: %d ALUs not divisible by %d clusters", a.ALUs, a.Clusters)
	case a.Regs%a.Clusters != 0:
		return fmt.Errorf("machine: %d registers not divisible by %d clusters", a.Regs, a.Clusters)
	case a.MULs > a.Clusters && a.MULs%a.Clusters != 0:
		return fmt.Errorf("machine: %d MULs not divisible by %d clusters", a.MULs, a.Clusters)
	}
	return a.Ops.Validate()
}

// ALUsPC returns integer ALUs per cluster.
func (a Arch) ALUsPC() int { return a.ALUs / a.Clusters }

// MULsPC returns IMUL-capable ALUs per cluster. When there are fewer
// MULs than clusters, each cluster still gets one (the template keeps
// clusters nearly identical, and at least one IMUL is always present);
// the cost model accounts for the real total, and Capacity for the
// slots the schedule can use.
func (a Arch) MULsPC() int { return max(a.MULs/a.Clusters, 1) }

// RegsPC returns registers per cluster.
func (a Arch) RegsPC() int { return a.Regs / a.Clusters }

// L2PathsPC returns each cluster's access paths into Level-2 memory.
// Global bandwidth stays p2 accesses/cycle; this is the per-cluster
// wiring that shows up in register-file port counts.
func (a Arch) L2PathsPC() int { return ceilDiv(a.L2Ports, a.Clusters) }

// MemPathsPC returns each cluster's total memory access paths: one into
// Level-1 plus its share of Level-2 ports.
func (a Arch) MemPathsPC() int { return 1 + a.L2PathsPC() }

// RegPorts returns the per-cluster register-file port count, the
// paper's derived parameter p(a, l) = 3a + 2l with a and l per-cluster.
// A custom-op unit (Ops) adds its own ports on top: it retires work
// that would otherwise occupy ALU issue slots, so it shares the operand
// network for two of its reads and pays for the rest — max(0, NIn−2)
// extra reads plus one write, with NIn the widest enabled op's operand
// count. The quadratic cycle-time derate (CycleModel) therefore prices
// the custom unit automatically.
func (a Arch) RegPorts() int { return 3*a.ALUsPC() + 2*a.MemPathsPC() + a.cuPorts() }

// cuPorts is the custom unit's register-file port charge (0 without
// custom ops).
func (a Arch) cuPorts() int {
	if a.Ops.Empty() {
		return 0
	}
	extra := a.Ops.MaxIn() - 2
	if extra < 0 {
		extra = 0
	}
	return extra + 1
}

// Buses returns the number of global inter-cluster connections
// available per cycle for explicit cross-cluster moves: one channel per
// pair of clusters, at least one once the machine is clustered.
func (a Arch) Buses() int {
	if a.Clusters <= 1 {
		return 0
	}
	return min(a.Clusters/2, MaxBuses)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
