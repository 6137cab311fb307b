package machine

import "customfit/internal/ir"

// Class is an operation's issue class: what it asks the machine for in
// the cycle it issues. The scheduler, the validator, the lower bound,
// the delta cache and the resource profile (sim.Profile) all take an
// operation's class, latency and port occupancy from the one
// description in this file and decide nothing themselves.
type Class uint8

const (
	ClassNone Class = iota // nothing (nop)
	ClassALU               // an ALU issue slot (arithmetic, compares, select, min/max, mov)
	ClassMul               // an ALU issue slot on a multiplier
	ClassXMov              // the source cluster's ALU issue slot and a bus
	ClassL1                // the cluster's L1 path and the L1 port
	ClassL2                // one of the cluster's L2 paths and an L2 port
	ClassCU                // the cluster's custom-op unit, no ALU slot
	ClassBr                // the branch unit

	// NumClasses bounds a table indexed by Class.
	NumClasses = iota
)

var classNames = [NumClasses]string{"none", "alu", "mul", "xmov", "l1", "l2", "cu", "br"}

func (c Class) String() string { return classNames[c] }

// Charges counts issue resources: what one operation takes (zeros and
// ones), or a sum of those over a bundle, a block or a program. ALU and
// MUL are issue slots (a multiply takes one of each), Bus the global
// inter-cluster channels, L1 and L2 memory accesses (the cluster's path
// and a port), CU and Br issues on a custom unit and the branch unit.
type Charges struct{ ALU, MUL, Bus, L1, L2, CU, Br int }

// Add accumulates d into c.
func (c *Charges) Add(d Charges) {
	c.ALU += d.ALU
	c.MUL += d.MUL
	c.Bus += d.Bus
	c.L1 += d.L1
	c.L2 += d.L2
	c.CU += d.CU
	c.Br += d.Br
}

var classCharges = [NumClasses]Charges{
	ClassALU:  {ALU: 1},
	ClassMul:  {ALU: 1, MUL: 1},
	ClassXMov: {ALU: 1, Bus: 1},
	ClassL1:   {L1: 1},
	ClassL2:   {L2: 1},
	ClassCU:   {CU: 1},
	ClassBr:   {Br: 1},
}

// Charges returns what one issue of the class takes.
func (c Class) Charges() Charges { return classCharges[c] }

// opDesc is one row of the description. lat is the def-use latency of
// the result; an operation without one carries the cycle it issues in,
// which the scheduler's cool-off after a forced placement reads. occ is
// how many cycles the operation holds its memory port. Either may name
// a parameter instead of a number.
type opDesc struct {
	class    Class
	lat, occ int8
}

// The parametric entries (see resolve).
const (
	byL2Lat = -1 // the architecture's L2 latency: its ports are not pipelined (paper Table 4)
	bySpec  = -2 // the fused instruction's own FusedSpec.Lat (its chained datapath)
)

var (
	descALU = opDesc{ClassALU, LatALU, 0}
	descBr  = opDesc{ClassBr, LatALU, 0}
)

// desc is the machine description: opcode × memory space. Only loads
// and stores differ by space; an opcode without a row here fails
// TestDescriptionRows.
var desc = [...][2]opDesc{
	ir.OpNop:    {{ClassNone, LatALU, 0}, {ClassNone, LatALU, 0}},
	ir.OpAdd:    {descALU, descALU},
	ir.OpSub:    {descALU, descALU},
	ir.OpShl:    {descALU, descALU},
	ir.OpShrA:   {descALU, descALU},
	ir.OpShrU:   {descALU, descALU},
	ir.OpAnd:    {descALU, descALU},
	ir.OpOr:     {descALU, descALU},
	ir.OpXor:    {descALU, descALU},
	ir.OpCmpEQ:  {descALU, descALU},
	ir.OpCmpNE:  {descALU, descALU},
	ir.OpCmpLT:  {descALU, descALU},
	ir.OpCmpLE:  {descALU, descALU},
	ir.OpCmpGT:  {descALU, descALU},
	ir.OpCmpGE:  {descALU, descALU},
	ir.OpSelect: {descALU, descALU},
	ir.OpMin:    {descALU, descALU},
	ir.OpMax:    {descALU, descALU},
	ir.OpMov:    {descALU, descALU},
	ir.OpXMov:   {{ClassXMov, LatMove, 0}, {ClassXMov, LatMove, 0}},
	ir.OpMul:    {{ClassMul, LatMUL, 0}, {ClassMul, LatMUL, 0}},
	ir.OpLoad:   {ir.L1: {ClassL1, LatL1, L1Occupancy}, ir.L2: {ClassL2, byL2Lat, byL2Lat}},
	ir.OpStore:  {ir.L1: {ClassL1, LatALU, L1Occupancy}, ir.L2: {ClassL2, LatALU, byL2Lat}},
	ir.OpBr:     {descBr, descBr},
	ir.OpCBr:    {descBr, descBr},
	ir.OpRet:    {descBr, descBr},
	ir.OpFused:  {{ClassCU, bySpec, 0}, {ClassCU, bySpec, 0}},
}

func describe(in *ir.Instr) opDesc {
	if in.Mem != nil {
		return desc[in.Op][in.Mem.Space]
	}
	return desc[in.Op][0]
}

// ClassOf returns in's issue class.
func ClassOf(in *ir.Instr) Class { return describe(in).class }

// IssueCharges sums what issuing every instruction of ins takes.
func IssueCharges(ins []*ir.Instr) Charges {
	var c Charges
	for _, in := range ins {
		c.Add(ClassOf(in).Charges())
	}
	return c
}

// Latency returns the def-use latency of in's result on arch.
func Latency(in *ir.Instr, arch Arch) int { return resolve(describe(in).lat, in, arch) }

// Occupancy returns how many cycles in holds its memory port on arch:
// the full latency on L2, one cycle on the fixed-throughput L1 port,
// none for anything else.
func Occupancy(in *ir.Instr, arch Arch) int { return resolve(describe(in).occ, in, arch) }

func resolve(v int8, in *ir.Instr, arch Arch) int {
	switch v {
	case byL2Lat:
		return arch.L2Lat
	case bySpec:
		return in.Fused.Lat
	}
	return int(v)
}
