package ir

import "fmt"

// Op is an IR operation code. The repertoire follows the paper's
// RISC/VLIW philosophy: simple integer operations only, with integer
// multiply the single "expensive" ALU capability (only IMUL-capable
// ALUs may execute it). There is no divide unit; the frontend strength-
// reduces division by power-of-two constants.
type Op uint8

const (
	OpNop Op = iota

	// Integer ALU operations, latency 1.
	OpAdd
	OpSub
	OpShl  // shift left logical
	OpShrA // shift right arithmetic
	OpShrU // shift right logical
	OpAnd
	OpOr
	OpXor
	OpCmpEQ
	OpCmpNE
	OpCmpLT  // signed <
	OpCmpLE  // signed <=
	OpCmpGT  // signed >
	OpCmpGE  // signed >=
	OpSelect // dest = arg0 != 0 ? arg1 : arg2
	// OpMin/OpMax are single-cycle signed min/max, available only when
	// the target's ALU repertoire includes them (machine.Arch.MinMax,
	// the opcode-choice extension of paper §2.2's "ALU Repertoire").
	// The backend fuses cmp+select pairs into them; they never appear
	// in architecture-independent IR.
	OpMin
	OpMax
	OpMov // dest = arg0
	// OpXMov copies a value between clusters over the global
	// connections: it reads arg0 in the source cluster's register file
	// and writes the destination register in another cluster, occupying
	// an ALU issue slot on the source cluster plus a global bus channel.
	// Inserted by the cluster partitioner; never appears before it.
	OpXMov

	// Integer multiply: latency 2, pipelined, requires an IMUL-capable ALU.
	OpMul

	// Memory operations. The MemRef determines the address space, the
	// index operand is in element units, Off is a constant element
	// offset folded into the addressing mode.
	OpLoad  // dest = Mem[arg0 + Off]
	OpStore // Mem[arg0 + Off] = arg1

	// Control transfer, executed by the single branch unit on cluster 0.
	OpBr  // unconditional: Targets[0]
	OpCBr // conditional on arg0 != 0: Targets[0] if true, Targets[1] if false
	OpRet

	// OpFused is an application-defined custom operation: a small DAG of
	// simple ALU steps chained into one issue slot on the dedicated
	// custom unit (machine.Arch.Ops). The instruction's Fused field
	// carries its FusedSpec; Args are the spec's external inputs. Never
	// emitted by the frontend — the backend's pattern rewriter
	// (internal/ops) introduces it per-architecture, like OpMin/OpMax.
	OpFused
)

var opNames = [...]string{
	OpNop:    "nop",
	OpAdd:    "add",
	OpSub:    "sub",
	OpShl:    "shl",
	OpShrA:   "shra",
	OpShrU:   "shru",
	OpAnd:    "and",
	OpOr:     "or",
	OpXor:    "xor",
	OpCmpEQ:  "cmpeq",
	OpCmpNE:  "cmpne",
	OpCmpLT:  "cmplt",
	OpCmpLE:  "cmple",
	OpCmpGT:  "cmpgt",
	OpCmpGE:  "cmpge",
	OpSelect: "select",
	OpMin:    "min",
	OpMax:    "max",
	OpMov:    "mov",
	OpXMov:   "xmov",
	OpMul:    "mul",
	OpLoad:   "load",
	OpStore:  "store",
	OpBr:     "br",
	OpCBr:    "cbr",
	OpRet:    "ret",
	OpFused:  "fused",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("Op(%d)", uint8(op))
}

// IsALU reports whether op is a pure integer computation on register
// values: what the optimizer may speculate and the op miner may chain
// into a fused op. It is not an issue class — which unit an operation
// occupies, and for how long, is machine.ClassOf's to answer.
func (op Op) IsALU() bool {
	switch op {
	case OpAdd, OpSub, OpShl, OpShrA, OpShrU, OpAnd, OpOr, OpXor,
		OpCmpEQ, OpCmpNE, OpCmpLT, OpCmpLE, OpCmpGT, OpCmpGE,
		OpSelect, OpMin, OpMax, OpMov, OpMul:
		return true
	}
	return false
}

// IsCmp reports whether op is a comparison producing 0/1.
func (op Op) IsCmp() bool {
	switch op {
	case OpCmpEQ, OpCmpNE, OpCmpLT, OpCmpLE, OpCmpGT, OpCmpGE:
		return true
	}
	return false
}

// IsMem reports whether op accesses memory.
func (op Op) IsMem() bool { return op == OpLoad || op == OpStore }

// IsTerminator reports whether op ends a basic block.
func (op Op) IsTerminator() bool { return op == OpBr || op == OpCBr || op == OpRet }

// HasDest reports whether op defines a destination register.
func (op Op) HasDest() bool {
	switch op {
	case OpStore, OpBr, OpCBr, OpRet, OpNop:
		return false
	}
	return true
}

// IsCommutative reports whether arg0 and arg1 may be exchanged.
func (op Op) IsCommutative() bool {
	switch op {
	case OpAdd, OpAnd, OpOr, OpXor, OpCmpEQ, OpCmpNE, OpMin, OpMax, OpMul:
		return true
	}
	return false
}

// NArgs returns the number of operands op expects. OpFused is
// variable-arity (the instruction's FusedSpec.NIn decides); callers
// handling fused instructions must consult the spec, not this.
func (op Op) NArgs() int {
	switch op {
	case OpNop, OpBr, OpRet:
		return 0
	case OpFused:
		return -1
	case OpMov, OpXMov, OpLoad, OpCBr:
		return 1
	case OpSelect:
		return 3
	case OpStore:
		return 2
	default:
		return 2
	}
}

// Eval3 computes the result of a pure (non-memory, non-control)
// operation on concrete 32-bit values; operands the op does not take
// (b and c of a move, c of everything but select) are ignored. It is
// the one opcode table: the constant folders, the interpreter, the
// fused-step evaluator and the simulator all come here, so they can
// never disagree.
func (op Op) Eval3(a, b, c int32) int32 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpShl:
		return a << (uint32(b) & 31)
	case OpShrA:
		return a >> (uint32(b) & 31)
	case OpShrU:
		return int32(uint32(a) >> (uint32(b) & 31))
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpCmpEQ:
		return b2i(a == b)
	case OpCmpNE:
		return b2i(a != b)
	case OpCmpLT:
		return b2i(a < b)
	case OpCmpLE:
		return b2i(a <= b)
	case OpCmpGT:
		return b2i(a > b)
	case OpCmpGE:
		return b2i(a >= b)
	case OpSelect:
		if a != 0 {
			return b
		}
		return c
	case OpMin:
		if a < b {
			return a
		}
		return b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMov, OpXMov:
		return a
	}
	panic(fmt.Sprintf("ir: Eval of non-pure op %s", op))
}

// Eval is Eval3 over an operand list, for callers that hold one (the
// constant folders); operands beyond the list read as zero.
func (op Op) Eval(args ...int32) int32 {
	var v [3]int32
	copy(v[:], args)
	return op.Eval3(v[0], v[1], v[2])
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}
