package ir

import "fmt"

// Env binds a function's parameters and memories for direct IR
// interpretation. The interpreter is the semantic reference for the
// whole pipeline: frontend tests check lowered IR against hand
// computations, optimizer tests check pass input vs output, and the
// VLIW simulator is cross-checked against it.
type Env struct {
	// Args are scalar parameter values in declaration order.
	Args []int32
	// Mem maps MemRef names to backing storage (element-wide values in
	// canonical stored form). Parameter arrays must be bound; local and
	// global arrays are allocated automatically if absent.
	Mem map[string][]int32
	// MaxSteps bounds execution; 0 means the default (50M instructions).
	MaxSteps int
	// Visits, when non-nil, accumulates per-block execution counts by
	// block name. Block visit counts are architecture-independent, so
	// the explorer interprets a kernel once and prices its schedule on
	// every machine via vliw.Program.StaticCycles.
	Visits map[string]int64
}

// NewEnv creates an environment with the given scalar arguments.
func NewEnv(args ...int32) *Env {
	return &Env{Args: args, Mem: map[string][]int32{}}
}

// Bind attaches backing storage for a memory reference by name.
func (e *Env) Bind(name string, data []int32) *Env {
	e.Mem[name] = data
	return e
}

// Interp executes f over env, mutating bound memories in place.
// It returns the number of instructions executed.
func Interp(f *Func, env *Env) (int, error) {
	if len(env.Args) != len(f.Params) {
		return 0, fmt.Errorf("interp %s: %d args for %d params", f.Name, len(env.Args), len(f.Params))
	}
	regs := make([]int32, f.NumRegs())
	for i, p := range f.Params {
		regs[p.Reg] = env.Args[i]
	}
	mems := make(map[*MemRef][]int32, len(f.Mems))
	for _, m := range f.Mems {
		data, ok := env.Mem[m.Name]
		if !ok {
			if m.IsParam {
				return 0, fmt.Errorf("interp %s: parameter array %q not bound", f.Name, m.Name)
			}
			data = make([]int32, m.Size)
			env.Mem[m.Name] = data
		}
		if m.Size > 0 && len(data) < m.Size {
			return 0, fmt.Errorf("interp %s: memory %q has %d elements, needs %d", f.Name, m.Name, len(data), m.Size)
		}
		for i, v := range m.Init {
			data[i] = v
		}
		mems[m] = data
	}
	limit := env.MaxSteps
	if limit == 0 {
		limit = 50_000_000
	}

	steps := 0
	blk := f.Entry()
	if env.Visits != nil {
		env.Visits[blk.Name]++
	}
	pc := 0
	arg := func(o Operand) int32 {
		if o.Kind == OperImm {
			return o.Imm
		}
		return regs[o.Reg]
	}
	for {
		if pc >= len(blk.Instrs) {
			return steps, fmt.Errorf("interp %s: fell off end of block %s", f.Name, blk.Name)
		}
		in := blk.Instrs[pc]
		steps++
		if steps > limit {
			return steps, fmt.Errorf("interp %s: exceeded %d steps (infinite loop?)", f.Name, limit)
		}
		switch in.Op {
		case OpNop:
		case OpLoad:
			data := mems[in.Mem]
			idx := int(arg(in.Args[0])) + int(in.Off)
			if idx < 0 || idx >= len(data) {
				return steps, fmt.Errorf("interp %s/%s: load %s[%d] out of bounds (len %d)", f.Name, blk.Name, in.Mem.Name, idx, len(data))
			}
			regs[in.Dest] = in.Elem.Extend(data[idx])
		case OpStore:
			data := mems[in.Mem]
			idx := int(arg(in.Args[0])) + int(in.Off)
			if idx < 0 || idx >= len(data) {
				return steps, fmt.Errorf("interp %s/%s: store %s[%d] out of bounds (len %d)", f.Name, blk.Name, in.Mem.Name, idx, len(data))
			}
			data[idx] = in.Elem.Truncate(arg(in.Args[1]))
		case OpBr:
			blk, pc = in.Targets[0], 0
			if env.Visits != nil {
				env.Visits[blk.Name]++
			}
			continue
		case OpCBr:
			if arg(in.Args[0]) != 0 {
				blk = in.Targets[0]
			} else {
				blk = in.Targets[1]
			}
			pc = 0
			if env.Visits != nil {
				env.Visits[blk.Name]++
			}
			continue
		case OpRet:
			return steps, nil
		case OpFused:
			// Stack buffers: the custom unit wires at most four inputs
			// (machine.MaxFusedIn), a pure op takes at most three.
			var buf [4]int32
			vals := buf[:0]
			for _, a := range in.Args {
				vals = append(vals, arg(a))
			}
			regs[in.Dest] = in.Fused.Eval(vals)
		default:
			var v [3]int32
			for i, a := range in.Args {
				v[i] = arg(a)
			}
			regs[in.Dest] = in.Op.Eval3(v[0], v[1], v[2])
		}
		pc++
	}
}
