package opt

import (
	"math/bits"
	"slices"

	"customfit/internal/ir"
)

// Clean runs the per-block cleanup pipeline over every block of f:
// regional renaming to single-assignment form, copy propagation,
// constant folding, algebraic simplification, multiply strength
// reduction, value-numbering CSE (including load CSE across non-aliased
// stores), addressing-offset folding, and dead-code elimination.
//
// After Clean, each block defines only fresh temporaries, with "home"
// registers (live across blocks) written exactly once by a final move
// group just before the terminator. Clean is idempotent and is re-run
// after every structural pass.
func Clean(f *ir.Func) { run(f, (*workspace).cleanFunc) }

// cleanFunc re-emits f into the buffer that holds none of it (see
// workspace).
func (ws *workspace) cleanFunc(f *ir.Func) {
	lv := ws.liveness(f)
	c := &ws.clean
	c.f, c.slab = f, ws.reemit(f.Size())
	// A block's instructions name only registers that exist now: the
	// temporaries this pass makes are local to the block that made them,
	// about one per instruction, which is the room a table that has to
	// grow gets on top.
	c.spare = f.NumInstrs()
	zeroed(&c.slot, f.NumRegs(), c.spare)
	if c.cse == nil {
		// Sized for the largest block, so that filling it the first
		// time does not double its way there.
		largest := 0
		for _, b := range f.Blocks {
			largest = max(largest, len(b.Instrs))
		}
		c.cse = make(map[vnKey]ir.Operand, largest)
		c.epoch = map[*ir.MemRef]int{}
		c.canonAddr = map[affineKey]canonEntry{}
	}
	for bi, b := range f.Blocks {
		c.block(bi, b, lv)
	}
}

// vnKey identifies a computed value for CSE. Operands are flattened
// into (kind, value) pairs; loads additionally carry their memory
// reference, offset and the store epoch they observed.
type vnKey struct {
	op         ir.Op
	n          int
	k0, k1, k2 ir.OperandKind
	v0, v1, v2 int32
	mem        *ir.MemRef
	epoch      int
	off        int32
	elem       ir.ElemType
}

func operandVal(o ir.Operand) int32 {
	if o.IsImm() {
		return o.Imm
	}
	return int32(o.Reg)
}

func makeKey(op ir.Op, args []ir.Operand) vnKey {
	k := vnKey{op: op, n: len(args)}
	if op.IsCommutative() && len(args) == 2 {
		a, b := args[0], args[1]
		if a.Kind > b.Kind || (a.Kind == b.Kind && operandVal(a) > operandVal(b)) {
			args = []ir.Operand{b, a}
		}
	}
	if len(args) > 0 {
		k.k0, k.v0 = args[0].Kind, operandVal(args[0])
	}
	if len(args) > 1 {
		k.k1, k.v1 = args[1].Kind, operandVal(args[1])
	}
	if len(args) > 2 {
		k.k2, k.v2 = args[2].Kind, operandVal(args[2])
	}
	return k
}

// affineForm expresses a register's value as scale*base + off (exact
// two's-complement arithmetic), the canonical shape of unrolled address
// computations like (i+k)*3+c.
type affineForm struct {
	base       ir.Reg // live-in register the value is linear in
	scale, off int32
}

// blockCleaner is the cleaner's state, kept in the workspace: tables
// that are dense over registers where a register indexes them, reset
// block by block through what the block touched.
type blockCleaner struct {
	f     *ir.Func
	slab  *ir.Slab // where emitted instructions come from
	spare int      // registers of room for a table that has to grow

	// defined lists the original destination registers in the order of
	// their first definition and bind, in step with it, the value each
	// currently holds. slot, dense over the registers that exist when
	// the pass starts, finds a register there: 1 + its position, 0 for
	// one the block has not defined. It is reset through defined.
	defined []ir.Reg
	bind    []ir.Operand
	slot    []int32

	// Over the block's fresh temporaries, which are contiguous from
	// base, the register count at block entry (temp r is entry r-base;
	// both reset by truncation): the emitted instruction defining it,
	// and its linear form, with base NoReg when none is known.
	base   ir.Reg
	defOf  []*ir.Instr
	affine []affineForm

	cse   map[vnKey]ir.Operand
	epoch map[*ir.MemRef]int

	// canonAddr maps (base, scale) to the first register computing that
	// linear form, so every address with the same slope shares one base
	// register and differs only in the constant offset. This is what
	// lets the memory disambiguator prove unrolled copies' accesses
	// disjoint.
	canonAddr map[affineKey]canonEntry

	out       []*ir.Instr   // emitted, before dead-code elimination
	args      [3]ir.Operand // a pure op's substituted operands
	homes     []ir.Reg
	pre, movs []*ir.Instr
	needed    []uint64
}

type affineKey struct {
	base  ir.Reg
	scale int32
}

type canonEntry struct {
	reg ir.Reg
	off int32
}

// block cleans the bi-th block of the function.
func (c *blockCleaner) block(bi int, b *ir.Block, lv *Liveness) {
	f := c.f
	term := b.Terminator()
	if term == nil {
		// Malformed, which Verify reports; carried along into the
		// buffer the rest of the function moves to.
		for i, in := range b.Instrs {
			b.Instrs[i] = c.slab.Clone(in, nil)
		}
		return
	}
	c.base = ir.Reg(f.NumRegs())
	body := b.Body()
	reserve(&c.defined, len(body))
	reserve(&c.bind, len(body))
	reserve(&c.out, len(body))
	reserve(&c.defOf, len(body))
	reserve(&c.affine, len(body))
	for _, in := range body {
		c.process(in)
	}

	// Final move group: restore home registers that are live out.
	isHome := func(r ir.Reg) bool { return c.slotOf(r) != 0 && lv.liveOut(bi, r) }
	homes := c.homes[:0]
	for _, r := range c.defined {
		if lv.liveOut(bi, r) {
			homes = append(homes, r)
		}
	}
	slices.Sort(homes)
	c.homes = homes
	// The final moves are a parallel assignment: if one home's value is
	// another home register's live-in value, copy it to a temp first.
	pre, movs := c.pre[:0], c.movs[:0]
	for _, r := range homes {
		v := c.bind[c.slot[r]-1]
		if v.IsReg() && v.Reg != r && isHome(v.Reg) {
			t := ir.NoReg
			for _, cp := range pre {
				if cp.Args[0].Reg == v.Reg {
					t = cp.Dest
					break
				}
			}
			if t == ir.NoReg {
				t = f.NewReg()
				pre = append(pre, c.slab.New(ir.OpMov, t, ir.R(v.Reg)))
			}
			v = ir.R(t)
		}
		if v.IsReg() && v.Reg == r {
			continue // mov r, r
		}
		movs = append(movs, c.slab.New(ir.OpMov, r, v))
	}
	c.pre, c.movs = pre, movs

	// Rewrite the terminator's uses.
	for i, a := range term.Args {
		term.Args[i] = c.subst(a)
	}

	// DCE over the body: keep stores; keep defs transitively needed by
	// the final moves, the pre-copies, and the terminator.
	needed := regset(zeroed(&c.needed, (f.NumRegs()+63)/64, (c.spare+63)/64))
	markUses := func(in *ir.Instr) {
		for _, a := range in.Args {
			if a.IsReg() {
				needed.set(a.Reg)
			}
		}
	}
	for _, in := range pre {
		markUses(in)
	}
	for _, in := range movs {
		markUses(in)
	}
	markUses(term)
	kept := 0
	for i := len(c.out) - 1; i >= 0; i-- {
		in := c.out[i]
		if in.Op.HasDest() && !needed.get(in.Dest) {
			c.out[i] = nil // dead pure op or load
			continue
		}
		markUses(in)
		kept++
	}

	instrs := make([]*ir.Instr, 0, kept+len(pre)+len(movs)+1)
	for _, in := range c.out {
		if in != nil {
			instrs = append(instrs, in)
		}
	}
	instrs = append(instrs, pre...)
	instrs = append(instrs, movs...)
	b.Instrs = append(instrs, term)

	// Leave the tables as the next block expects them.
	for _, r := range c.defined {
		c.slot[r] = 0
	}
	clear(c.cse)
	clear(c.epoch)
	clear(c.canonAddr)
}

// slotOf is slot[r], and 0 for a temporary made after the table was
// sized.
func (c *blockCleaner) slotOf(r ir.Reg) int32 {
	if int(r) < len(c.slot) {
		return c.slot[r]
	}
	return 0
}

func (c *blockCleaner) subst(a ir.Operand) ir.Operand {
	if a.IsReg() {
		if s := c.slotOf(a.Reg); s != 0 {
			return c.bind[s-1]
		}
	}
	return a
}

// emit appends an instruction defining a fresh temporary to the block
// under construction. Every temporary of the block is made here, which
// is what keeps defOf and affine in step with the register numbers.
func (c *blockCleaner) emit(op ir.Op, args ...ir.Operand) *ir.Instr {
	ni := c.slab.New(op, c.f.NewReg(), args...)
	c.out = append(c.out, ni)
	c.defOf = append(c.defOf, ni)
	c.affine = append(c.affine, affineForm{base: ir.NoReg})
	return ni
}

func (c *blockCleaner) process(in *ir.Instr) {
	switch {
	case in.Op == ir.OpNop:
		return
	case in.Op == ir.OpMov:
		c.define(in.Dest, c.subst(in.Args[0]))
	case in.Op == ir.OpLoad:
		idx, off := c.foldAddress(c.subst(in.Args[0]), in.Off)
		key := vnKey{op: ir.OpLoad, n: 1, k0: idx.Kind, v0: operandVal(idx),
			mem: in.Mem, epoch: c.epoch[in.Mem], off: off, elem: in.Elem}
		if v, ok := c.cse[key]; ok {
			c.define(in.Dest, v)
			return
		}
		ni := c.emit(ir.OpLoad, idx)
		ni.Mem, ni.Off, ni.Elem = in.Mem, off, in.Elem
		c.cse[key] = ir.R(ni.Dest)
		c.define(in.Dest, ir.R(ni.Dest))
	case in.Op == ir.OpStore:
		idx := c.subst(in.Args[0])
		val := c.subst(in.Args[1])
		idx, off := c.foldAddress(idx, in.Off)
		ni := c.slab.New(ir.OpStore, ir.NoReg, idx, val)
		ni.Mem, ni.Off, ni.Elem = in.Mem, off, in.Elem
		c.out = append(c.out, ni)
		c.epoch[in.Mem]++
	case in.Op == ir.OpFused:
		// Custom fused op: substitute the inputs and re-emit opaquely.
		// No folding (Op.Eval does not know the spec) and no vnKey CSE
		// (the three-operand key cannot carry a variable-arity spec);
		// the op rewriter runs after Clean anyway, so nothing is lost.
		ni := c.emit(ir.OpFused, in.Args...)
		for i, a := range ni.Args {
			ni.Args[i] = c.subst(a)
		}
		ni.Fused = in.Fused
		c.define(in.Dest, ir.R(ni.Dest))
	default: // pure ALU op
		args := c.args[:len(in.Args)]
		for i, a := range in.Args {
			args[i] = c.subst(a)
		}
		c.define(in.Dest, c.emitPure(in.Op, args))
	}
}

// define records that original register r now holds value v.
func (c *blockCleaner) define(r ir.Reg, v ir.Operand) {
	if s := c.slot[r]; s != 0 {
		c.bind[s-1] = v
		return
	}
	c.defined = append(c.defined, r)
	c.bind = append(c.bind, v)
	c.slot[r] = int32(len(c.defined))
}

// emitPure folds, simplifies, strength-reduces and CSEs a pure
// operation, emitting at most a couple of instructions and returning
// the value operand. args is the caller's to lose: it may be reordered
// and rewritten, and is not kept.
func (c *blockCleaner) emitPure(op ir.Op, args []ir.Operand) ir.Operand {
	// Full constant folding.
	allImm := true
	for _, a := range args {
		if !a.IsImm() {
			allImm = false
			break
		}
	}
	if allImm {
		var vals [3]int32
		for i, a := range args {
			vals[i] = a.Imm
		}
		return ir.Imm(op.Eval3(vals[0], vals[1], vals[2]))
	}
	// Canonicalize: immediate on the right for commutative ops; a-imm
	// becomes a+(-imm) so addressing folds see a single shape.
	if op.IsCommutative() && len(args) == 2 && args[0].IsImm() {
		args[0], args[1] = args[1], args[0]
	}
	if op == ir.OpSub && args[1].IsImm() && args[1].Imm != -2147483648 {
		op = ir.OpAdd
		args[1] = ir.Imm(-args[1].Imm)
	}
	if v, ok := simplify(op, args); ok {
		return v
	}
	// Multiply strength reduction: x*C in <= 2 cheap ops.
	if op == ir.OpMul && args[1].IsImm() {
		if v, ok := c.mulByConst(args[0], args[1].Imm); ok {
			return v
		}
	}
	key := makeKey(op, args)
	if v, ok := c.cse[key]; ok {
		if v.IsReg() {
			c.recordAffine(v.Reg, op, args)
		}
		return v
	}
	d := c.emit(op, args...).Dest
	c.cse[key] = ir.R(d)
	c.recordAffine(d, op, args)
	return ir.R(d)
}

// affineOf returns the linear form of an operand, if known: immediates
// are pure offsets; live-in registers are themselves; emitted temps use
// the recorded form.
func (c *blockCleaner) affineOf(o ir.Operand) (affineForm, bool) {
	if o.IsImm() {
		return affineForm{base: ir.NoReg, scale: 0, off: o.Imm}, true
	}
	if o.Reg >= c.base {
		// An emitted temp with no recorded linear form (a load result,
		// a compare, ...) is opaque.
		af := c.affine[o.Reg-c.base]
		return af, af.base != ir.NoReg
	}
	// Any other register is an original (live-in-valued) register:
	// after regional renaming, substituted uses of original registers
	// always read the block's entry value, so it is a stable base.
	return affineForm{base: o.Reg, scale: 1, off: 0}, true
}

// combineAffine adds (or subtracts) two linear forms over one base.
func combineAffine(x, y affineForm, sub bool) (affineForm, bool) {
	if sub {
		y.scale, y.off = -y.scale, -y.off
	}
	switch {
	case x.base == ir.NoReg:
		y.off += x.off
		return y, true
	case y.base == ir.NoReg:
		x.off += y.off
		return x, true
	case x.base == y.base:
		return affineForm{base: x.base, scale: x.scale + y.scale, off: x.off + y.off}, true
	}
	return affineForm{}, false
}

// recordAffine derives the linear form of temp d = op(args) when
// possible.
func (c *blockCleaner) recordAffine(d ir.Reg, op ir.Op, args []ir.Operand) {
	if c.affine[d-c.base].base != ir.NoReg {
		return
	}
	var out affineForm
	ok := false
	switch op {
	case ir.OpAdd, ir.OpSub:
		x, ok1 := c.affineOf(args[0])
		y, ok2 := c.affineOf(args[1])
		if ok1 && ok2 {
			out, ok = combineAffine(x, y, op == ir.OpSub)
		}
	case ir.OpShl:
		if args[1].IsImm() {
			if x, ok1 := c.affineOf(args[0]); ok1 {
				sh := uint32(args[1].Imm) & 31
				out = affineForm{base: x.base, scale: x.scale << sh, off: x.off << sh}
				ok = true
			}
		}
	case ir.OpMul:
		if args[1].IsImm() {
			if x, ok1 := c.affineOf(args[0]); ok1 {
				out = affineForm{base: x.base, scale: x.scale * args[1].Imm, off: x.off * args[1].Imm}
				ok = true
			}
		}
	case ir.OpMov:
		if x, ok1 := c.affineOf(args[0]); ok1 {
			out, ok = x, true
		}
	}
	if ok && out.base != ir.NoReg {
		c.affine[d-c.base] = out
	}
}

// simplify applies algebraic identities. args are already substituted
// and canonicalized.
func simplify(op ir.Op, args []ir.Operand) (ir.Operand, bool) {
	imm1 := func() (int32, bool) {
		if len(args) == 2 && args[1].IsImm() {
			return args[1].Imm, true
		}
		return 0, false
	}
	sameRegs := len(args) == 2 && args[0].IsReg() && args[1].IsReg() && args[0].Reg == args[1].Reg
	switch op {
	case ir.OpAdd:
		if v, ok := imm1(); ok && v == 0 {
			return args[0], true
		}
	case ir.OpSub:
		if sameRegs {
			return ir.Imm(0), true
		}
	case ir.OpMul:
		if v, ok := imm1(); ok {
			switch v {
			case 0:
				return ir.Imm(0), true
			case 1:
				return args[0], true
			}
		}
	case ir.OpShl, ir.OpShrA, ir.OpShrU:
		if v, ok := imm1(); ok && v&31 == 0 {
			return args[0], true
		}
		if args[0].IsImm() && args[0].Imm == 0 {
			return ir.Imm(0), true
		}
	case ir.OpAnd:
		if sameRegs {
			return args[0], true
		}
		if v, ok := imm1(); ok {
			if v == 0 {
				return ir.Imm(0), true
			}
			if v == -1 {
				return args[0], true
			}
		}
	case ir.OpOr:
		if sameRegs {
			return args[0], true
		}
		if v, ok := imm1(); ok {
			if v == 0 {
				return args[0], true
			}
			if v == -1 {
				return ir.Imm(-1), true
			}
		}
	case ir.OpXor:
		if sameRegs {
			return ir.Imm(0), true
		}
		if v, ok := imm1(); ok && v == 0 {
			return args[0], true
		}
	case ir.OpCmpEQ, ir.OpCmpLE, ir.OpCmpGE:
		if sameRegs {
			return ir.Imm(1), true
		}
	case ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpGT:
		if sameRegs {
			return ir.Imm(0), true
		}
	case ir.OpSelect:
		if args[0].IsImm() {
			if args[0].Imm != 0 {
				return args[1], true
			}
			return args[2], true
		}
		if len(args) == 3 && args[1] == args[2] {
			return args[1], true
		}
	}
	return ir.Operand{}, false
}

// mulByConst rewrites x*C as shifts and adds when it fits in at most
// two single-cycle operations — the fixed policy a production VLIW
// compiler would apply regardless of how many multipliers the target
// has.
func (c *blockCleaner) mulByConst(x ir.Operand, v int32) (ir.Operand, bool) {
	switch v {
	case 0:
		return ir.Imm(0), true
	case 1:
		return x, true
	case -1:
		return c.emitPure(ir.OpSub, []ir.Operand{ir.Imm(0), x}), true
	}
	abs := v
	if abs < 0 {
		abs = -abs
		if abs < 0 {
			return ir.Operand{}, false // -2^31
		}
	}
	if abs&(abs-1) == 0 { // power of two
		k := int32(bits.TrailingZeros32(uint32(abs)))
		sh := c.emitPure(ir.OpShl, []ir.Operand{x, ir.Imm(k)})
		if v < 0 {
			return c.emitPure(ir.OpSub, []ir.Operand{ir.Imm(0), sh}), true
		}
		return sh, true
	}
	if v > 0 {
		if p := v - 1; p&(p-1) == 0 { // 2^k + 1
			k := int32(bits.TrailingZeros32(uint32(p)))
			sh := c.emitPure(ir.OpShl, []ir.Operand{x, ir.Imm(k)})
			return c.emitPure(ir.OpAdd, []ir.Operand{sh, x}), true
		}
		if p := v + 1; p&(p-1) == 0 { // 2^k - 1
			k := int32(bits.TrailingZeros32(uint32(p)))
			sh := c.emitPure(ir.OpShl, []ir.Operand{x, ir.Imm(k)})
			return c.emitPure(ir.OpSub, []ir.Operand{sh, x}), true
		}
	}
	return ir.Operand{}, false
}

// foldAddress chases `t = add x, imm` chains feeding an address index,
// folding the constants into the access's element offset (the template
// has base+offset addressing, so these adds are free).
func (c *blockCleaner) foldAddress(idx ir.Operand, off int32) (ir.Operand, int32) {
	for idx.IsReg() && idx.Reg >= c.base {
		def := c.defOf[idx.Reg-c.base]
		if def.Op != ir.OpAdd || !def.Args[1].IsImm() {
			break
		}
		off += def.Args[1].Imm
		idx = def.Args[0]
	}
	if idx.IsImm() { // fully constant address
		return ir.Imm(idx.Imm + off), 0
	}
	// Affine canonicalization: rewrite s*b+o indices onto the first
	// register seen with the same (base, slope), moving the delta into
	// the constant offset. Exact under two's-complement arithmetic.
	if af, ok := c.affineOf(idx); ok && af.base != ir.NoReg {
		key := affineKey{af.base, af.scale}
		if ce, seen := c.canonAddr[key]; seen {
			return ir.R(ce.reg), off + af.off - ce.off
		}
		c.canonAddr[key] = canonEntry{reg: idx.Reg, off: af.off}
	}
	return idx, off
}
