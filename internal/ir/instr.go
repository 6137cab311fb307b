package ir

import "fmt"

// Reg is a virtual register identifier. Physical register numbers are
// assigned much later, by the per-cluster register allocator.
type Reg int32

// NoReg marks the absence of a destination register.
const NoReg Reg = -1

func (r Reg) String() string {
	if r == NoReg {
		return "_"
	}
	return fmt.Sprintf("v%d", int32(r))
}

// OperandKind distinguishes register operands from immediates.
type OperandKind uint8

const (
	// OperReg is a virtual-register operand.
	OperReg OperandKind = iota
	// OperImm is an immediate operand. Following the long-immediate
	// tradition of VLIW instruction words (the Multiflow TRACE carried
	// 32-bit immediates in its wide words), any 32-bit constant may be
	// an immediate.
	OperImm
)

// Operand is a register or immediate source operand.
type Operand struct {
	Kind OperandKind
	Reg  Reg
	Imm  int32
}

// R makes a register operand.
func R(r Reg) Operand { return Operand{Kind: OperReg, Reg: r} }

// Imm makes an immediate operand.
func Imm(v int32) Operand { return Operand{Kind: OperImm, Imm: v} }

// IsReg reports whether the operand is a register.
func (o Operand) IsReg() bool { return o.Kind == OperReg }

// IsImm reports whether the operand is an immediate.
func (o Operand) IsImm() bool { return o.Kind == OperImm }

func (o Operand) String() string {
	if o.Kind == OperImm {
		return fmt.Sprintf("%d", o.Imm)
	}
	return o.Reg.String()
}

// Instr is a single IR instruction.
type Instr struct {
	Op   Op
	Dest Reg       // NoReg when Op.HasDest() is false
	Args []Operand // source operands, see Op.NArgs

	// Memory access fields (OpLoad/OpStore only).
	Mem  *MemRef  // the array accessed
	Off  int32    // constant element offset folded into the address
	Elem ElemType // access width; normally Mem.Elem

	// Cluster is the executing cluster assigned by the backend's
	// partitioner (destination cluster for OpXMov). Zero before
	// partitioning. It stands beside Off and Elem, in the padding their
	// word leaves, which keeps an Instr at 80 bytes.
	Cluster int16

	// Control-flow targets (OpBr: 1, OpCBr: 2 = taken/fallthrough).
	Targets []*Block

	// Fused is the custom-op spec (OpFused only). Specs are immutable
	// and interned per op set, so Clone shares the pointer.
	Fused *FusedSpec
}

// NewInstr builds a non-memory, non-control instruction.
func NewInstr(op Op, dest Reg, args ...Operand) *Instr {
	return &Instr{Op: op, Dest: dest, Args: args}
}

// Uses appends the registers read by the instruction to dst and returns it.
func (in *Instr) Uses(dst []Reg) []Reg {
	for _, a := range in.Args {
		if a.Kind == OperReg {
			dst = append(dst, a.Reg)
		}
	}
	return dst
}

// Clone returns a deep copy of the instruction (Targets are shared,
// since blocks are identity objects).
func (in *Instr) Clone() *Instr {
	cp := *in
	cp.Args = append([]Operand(nil), in.Args...)
	cp.Targets = append([]*Block(nil), in.Targets...)
	return &cp
}

func (in *Instr) String() string {
	switch in.Op {
	case OpLoad:
		return fmt.Sprintf("%s = load.%s %s[%s%+d]", in.Dest, in.Elem, in.Mem.Name, in.Args[0], in.Off)
	case OpStore:
		return fmt.Sprintf("store.%s %s[%s%+d] = %s", in.Elem, in.Mem.Name, in.Args[0], in.Off, in.Args[1])
	case OpBr:
		return fmt.Sprintf("br %s", in.Targets[0].Name)
	case OpCBr:
		return fmt.Sprintf("cbr %s, %s, %s", in.Args[0], in.Targets[0].Name, in.Targets[1].Name)
	case OpRet:
		return "ret"
	case OpNop:
		return "nop"
	case OpFused:
		s := fmt.Sprintf("%s = %s.fused", in.Dest, in.Fused.Name)
		for i, a := range in.Args {
			if i > 0 {
				s += ","
			}
			s += " " + a.String()
		}
		return s
	}
	s := fmt.Sprintf("%s = %s", in.Dest, in.Op)
	for i, a := range in.Args {
		if i > 0 {
			s += ","
		}
		s += " " + a.String()
	}
	return s
}
