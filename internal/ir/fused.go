package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// FusedSpec describes a custom fused operation: a small DAG of simple
// ALU steps chained into one issue slot on a dedicated custom unit.
// This is the IR-level shape of the paper's "let the application define
// the architecture" idea extended to the instruction set: the op miner
// (internal/ops) extracts recurring dataflow clusters (MAC, SAD,
// clip/saturate) from the kernels' DDGs, and the architecture template
// (machine.Arch.Ops) carries a set of these specs as a design-space
// axis alongside ALU and register counts.
//
// A spec is architecture metadata, not program text: instructions refer
// to it by pointer (Instr.Fused) and specs are immutable after
// construction, so sharing the pointer across cloned functions is safe.
type FusedSpec struct {
	// Name is the human-readable mnemonic ("mac", "sad", ...). It is
	// display-only: Key excludes it, so two specs with the same dataflow
	// are the same op regardless of naming.
	Name string
	// NIn is the number of external inputs (the fused instruction's
	// operand count). The custom datapath bounds it: machine.MaxFusedIn.
	NIn int
	// Lat is the issue-to-result latency in cycles. The miner models it
	// as the chained-ALU critical path with the paper-style derating of
	// two chained simple stages per cycle (see ChainLatency), but a spec
	// loaded from a file may carry its own figure.
	Lat int
	// Steps is the internal dataflow in topological order; the last
	// step's result is the instruction's destination value.
	Steps []FusedStep
}

// FusedStep is one internal operation of a fused spec. A and B are
// operand references: Ext(i) refers to external input i, StepRef(i) to
// the result of Steps[i] (which must precede this step). Unary ops
// (Op.NArgs() == 1) ignore B.
type FusedStep struct {
	Op   Op
	A, B int
}

// Ext encodes a reference to external input i.
func Ext(i int) int { return i }

// StepRef encodes a reference to the result of step i.
func StepRef(i int) int { return ^i }

// IsStepRef reports whether ref names an internal step result.
func IsStepRef(ref int) bool { return ref < 0 }

// RefStep decodes a step reference produced by StepRef.
func RefStep(ref int) int { return ^ref }

// Validate checks internal consistency: operand counts, topological
// step references, in-range external inputs, and a positive latency.
func (s *FusedSpec) Validate() error {
	if s.NIn < 1 {
		return fmt.Errorf("ir: fused %q: NIn %d < 1", s.Name, s.NIn)
	}
	if s.Lat < 1 {
		return fmt.Errorf("ir: fused %q: latency %d < 1", s.Name, s.Lat)
	}
	if len(s.Steps) == 0 {
		return fmt.Errorf("ir: fused %q: no steps", s.Name)
	}
	for i, st := range s.Steps {
		// Fusable steps are the two-operand ALU ops (plus nothing else:
		// moves are free on the chained datapath, select's three operands
		// do not fit a step, and fused-in-fused is not a thing).
		if !st.Op.IsALU() || st.Op.NArgs() != 2 || st.Op == OpFused {
			return fmt.Errorf("ir: fused %q: step %d op %s is not a fusable ALU op", s.Name, i, st.Op)
		}
		refs := []int{st.A, st.B}
		for _, r := range refs {
			if IsStepRef(r) {
				if j := RefStep(r); j < 0 || j >= i {
					return fmt.Errorf("ir: fused %q: step %d references step %d (not topological)", s.Name, i, j)
				}
			} else if r < 0 || r >= s.NIn {
				return fmt.Errorf("ir: fused %q: step %d input $%d out of range [0,%d)", s.Name, i, r, s.NIn)
			}
		}
	}
	return nil
}

// Eval computes the fused result on concrete inputs; it is shared by
// the constant-free simulator paths exactly like Op.Eval3, so the fused
// and unfused programs can never disagree. The step results live in a
// stack buffer: the miner emits at most four steps, and a longer
// hand-written spec only costs the append.
func (s *FusedSpec) Eval(in []int32) int32 {
	var buf [4]int32
	tmp := buf[:0]
	for _, st := range s.Steps {
		var b int32
		if st.Op.NArgs() > 1 {
			b = fusedRef(st.B, in, tmp)
		}
		tmp = append(tmp, st.Op.Eval3(fusedRef(st.A, in, tmp), b, 0))
	}
	return tmp[len(tmp)-1]
}

// fusedRef resolves an operand reference against the external inputs
// and the step results so far.
func fusedRef(ref int, in, steps []int32) int32 {
	if IsStepRef(ref) {
		return steps[RefStep(ref)]
	}
	return in[ref]
}

// stepLat is the latency a step contributes on the chained datapath.
func stepLat(op Op) int {
	if op == OpMul {
		return 2 // LatMUL; machine and ir agree by construction
	}
	return 1 // LatALU
}

// Depth returns the latency-weighted critical path through the steps:
// the cycles the same dataflow costs as individual ALU/MUL operations.
func (s *FusedSpec) Depth() int {
	d := make([]int, len(s.Steps))
	ref := func(r int) int {
		if IsStepRef(r) {
			return d[RefStep(r)]
		}
		return 0
	}
	max := 0
	for i, st := range s.Steps {
		at := ref(st.A)
		if st.Op.NArgs() > 1 {
			if b := ref(st.B); b > at {
				at = b
			}
		}
		d[i] = at + stepLat(st.Op)
		if d[i] > max {
			max = d[i]
		}
	}
	return max
}

// ChainLatency is the miner's latency model for a fused op: the chained
// custom datapath evaluates the whole cluster with two simple stages
// per cycle (the paper's derating for chained ALUs), never faster than
// one cycle.
func (s *FusedSpec) ChainLatency() int {
	l := (s.Depth() + 1) / 2
	if l < 1 {
		l = 1
	}
	return l
}

// ALUSteps counts the simple (latency-1) internal steps; MULSteps the
// multiply steps. The cost model prices the custom unit from these.
func (s *FusedSpec) ALUSteps() int {
	n := 0
	for _, st := range s.Steps {
		if st.Op != OpMul {
			n++
		}
	}
	return n
}

// MULSteps counts the internal multiply steps.
func (s *FusedSpec) MULSteps() int {
	n := 0
	for _, st := range s.Steps {
		if st.Op == OpMul {
			n++
		}
	}
	return n
}

// Key returns the spec's canonical content key: the codec text without
// the display name. Two specs are the same custom op iff their keys are
// equal; op-set interning, memo signatures, cache keys and the wire
// protocol all build on it.
func (s *FusedSpec) Key() string { return string(s.AppendKey(nil)) }

// AppendKey appends the spec's Key to b, allocating nothing when b has
// room for it.
func (s *FusedSpec) AppendKey(b []byte) []byte {
	b = strconv.AppendInt(b, int64(s.NIn), 10)
	b = strconv.AppendInt(append(b, '/'), int64(s.Lat), 10)
	b = append(b, ':')
	for i, st := range s.Steps {
		if i > 0 {
			b = append(b, ';')
		}
		b = append(append(b, st.Op.String()...), ' ')
		b = appendRef(b, st.A)
		if st.Op.NArgs() > 1 {
			b = appendRef(append(b, ' '), st.B)
		}
	}
	return b
}

// appendRef appends an operand reference in the codec's syntax to b:
// %k for step k's result, $i for external input i.
func appendRef(b []byte, ref int) []byte {
	if IsStepRef(ref) {
		return strconv.AppendInt(append(b, '%'), int64(RefStep(ref)), 10)
	}
	return strconv.AppendInt(append(b, '$'), int64(ref), 10)
}

// String renders the full codec form "name/nin/lat: step; step; ...",
// the wire and file format ParseFusedSpec reads back.
func (s *FusedSpec) String() string {
	return fmt.Sprintf("%s/%s", s.Name, s.Key())
}

// opByName resolves codec mnemonics; built once from opNames.
var opByName = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, name := range opNames {
		if name != "" {
			m[name] = Op(op)
		}
	}
	return m
}()

// ParseFusedSpec parses the codec form produced by String:
//
//	mac/3/2: mul $0 $1; add %0 $2
//
// where $i is external input i and %i the result of step i. The parsed
// spec is validated.
func ParseFusedSpec(text string) (*FusedSpec, error) {
	head, body, ok := strings.Cut(text, ":")
	if !ok {
		return nil, fmt.Errorf("ir: fused spec %q: missing ':'", text)
	}
	parts := strings.Split(strings.TrimSpace(head), "/")
	if len(parts) != 3 {
		return nil, fmt.Errorf("ir: fused spec %q: header must be name/nin/lat", text)
	}
	name := strings.TrimSpace(parts[0])
	nin, err1 := strconv.Atoi(strings.TrimSpace(parts[1]))
	lat, err2 := strconv.Atoi(strings.TrimSpace(parts[2]))
	if name == "" || err1 != nil || err2 != nil {
		return nil, fmt.Errorf("ir: fused spec %q: bad header", text)
	}
	s := &FusedSpec{Name: name, NIn: nin, Lat: lat}
	for _, stepText := range strings.Split(body, ";") {
		fields := strings.Fields(stepText)
		if len(fields) == 0 {
			return nil, fmt.Errorf("ir: fused spec %q: empty step", text)
		}
		op, ok := opByName[fields[0]]
		if !ok {
			return nil, fmt.Errorf("ir: fused spec %q: unknown op %q", text, fields[0])
		}
		if want := op.NArgs(); len(fields)-1 != want {
			return nil, fmt.Errorf("ir: fused spec %q: op %s wants %d operands, got %d", text, op, want, len(fields)-1)
		}
		st := FusedStep{Op: op}
		for i, f := range fields[1:] {
			ref, err := parseRef(f)
			if err != nil {
				return nil, fmt.Errorf("ir: fused spec %q: %w", text, err)
			}
			if i == 0 {
				st.A = ref
			} else {
				st.B = ref
			}
		}
		s.Steps = append(s.Steps, st)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func parseRef(f string) (int, error) {
	if len(f) < 2 || (f[0] != '$' && f[0] != '%') {
		return 0, fmt.Errorf("bad operand reference %q", f)
	}
	n, err := strconv.Atoi(f[1:])
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad operand reference %q", f)
	}
	if f[0] == '%' {
		return StepRef(n), nil
	}
	return Ext(n), nil
}
