package machine

import "customfit/internal/ir"

// Class is an operation's issue class: what it asks the machine for in
// the cycle it issues. The scheduler, the validator, the lower bound,
// the delta cache and the resource profile (sim.Profile) all take an
// operation's class, latency and port occupancy from the one
// description in this file, and all but the delta cache take what a
// cycle of the machine holds from Arch.Capacity beside it; none of them
// decides these itself.
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

// Resource is what a class charges: ALU and MUL issue slots (a multiply
// takes one of each), Bus the global inter-cluster channels, L1 and L2
// memory accesses (the cluster's path and a port of the level), CU and
// Br issues on a custom unit and on the branch unit.
type Resource uint8

const (
	ALU Resource = iota
	MUL
	Bus
	L1
	L2
	CU
	Br

	// NumResources bounds a table indexed by Resource.
	NumResources = iota
)

var resourceNames = [NumResources]string{"alu", "mul", "bus", "l1", "l2", "cu", "br"}

func (r Resource) String() string { return resourceNames[r] }

// Charges counts resources: what one operation takes (zeros and ones),
// or a sum of those over a bundle, a block or a program.
type Charges [NumResources]int

// Add accumulates d into c.
func (c *Charges) Add(d Charges) {
	for r, n := range d {
		c[r] += n
	}
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

// Capacity is what one cycle of a machine holds, resource by resource:
// what one cluster issues (Cluster: the buses and the branch unit are
// the machine's, and one cluster may take them all), what the whole
// machine takes (Machine: for a memory level, its port pool), and how
// many cycles an issue keeps what it takes (Hold: a memory port its
// occupancy, the full latency on the non-pipelined L2 of paper Table 4).
// Over any run, Σ charges[r]·Hold[r] ≤ cycles·Machine[r]: the ratio is
// the run's occupancy of r (sim.Profile), its ceiling a floor on the
// cycles (sched.LowerBound). It depends only on the backend signature
// (dse.SigKey), so machines compiled alike are measured alike.
type Capacity struct{ Cluster, Machine, Hold Charges }

// Capacity returns what a cycle of a holds: a custom unit per cluster
// only with custom ops, MULsPC multipliers on every cluster.
func (a Arch) Capacity() Capacity {
	cu, c := 0, a.Clusters
	if !a.Ops.Empty() {
		cu = 1
	}
	return Capacity{
		Cluster: Charges{ALU: a.ALUsPC(), MUL: a.MULsPC(), Bus: a.Buses(), L1: 1, L2: a.L2PathsPC(), CU: cu, Br: 1},
		Machine: Charges{ALU: a.ALUsPC() * c, MUL: a.MULsPC() * c, Bus: a.Buses(), L1: 1, L2: a.L2Ports, CU: cu * c, Br: 1},
		Hold:    a.holds(),
	}
}

// holds is Capacity's Hold, read also by Occupancy.
func (a Arch) holds() Charges {
	return Charges{ALU: 1, MUL: 1, Bus: 1, L1: L1Occupancy, L2: a.L2Lat, CU: 1, Br: 1}
}

// opDesc is one row of the description. lat is the def-use latency of
// the result; an operation without one carries the cycle it issues in,
// which the scheduler's cool-off after a forced placement reads. It may
// name a parameter instead of a number.
type opDesc struct {
	class Class
	lat   int8
}

// The parametric entries (see resolve).
const (
	byL2Lat = -1 // the architecture's L2 latency
	bySpec  = -2 // the fused instruction's own FusedSpec.Lat (its chained datapath)
)

var (
	descALU = opDesc{ClassALU, LatALU}
	descBr  = opDesc{ClassBr, LatALU}
)

// desc is the machine description: opcode × memory space. Only loads
// and stores differ by space; an opcode without a row here fails
// TestDescriptionRows.
var desc = [...][2]opDesc{
	ir.OpNop:    {{ClassNone, LatALU}, {ClassNone, LatALU}},
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
	ir.OpXMov:   {{ClassXMov, LatMove}, {ClassXMov, LatMove}},
	ir.OpMul:    {{ClassMul, LatMUL}, {ClassMul, LatMUL}},
	ir.OpLoad:   {ir.L1: {ClassL1, LatL1}, ir.L2: {ClassL2, byL2Lat}},
	ir.OpStore:  {ir.L1: {ClassL1, LatALU}, ir.L2: {ClassL2, LatALU}},
	ir.OpBr:     {descBr, descBr},
	ir.OpCBr:    {descBr, descBr},
	ir.OpRet:    {descBr, descBr},
	ir.OpFused:  {{ClassCU, bySpec}, {ClassCU, bySpec}},
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
// its level's Hold (Capacity), none for anything else.
func Occupancy(in *ir.Instr, arch Arch) int {
	ch, h := ClassOf(in).Charges(), arch.holds()
	return ch[L1]*h[L1] + ch[L2]*h[L2]
}

func resolve(v int8, in *ir.Instr, arch Arch) int {
	switch v {
	case byL2Lat:
		return arch.L2Lat
	case bySpec:
		return in.Fused.Lat
	}
	return int(v)
}
