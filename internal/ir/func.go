package ir

import "fmt"

// MemRef names an array in one of the two memory spaces. Kernel
// parameters (image rows) live in L2; locals, constant tables and spill
// slots live in L1.
type MemRef struct {
	Name    string
	Space   Space
	Elem    ElemType
	Size    int     // number of elements; 0 = unknown (parameter arrays)
	IsParam bool    // bound by the caller
	Global  bool    // file-level storage persisting across invocations
	Const   bool    // read-only constant table
	Init    []int32 // initial contents for locals/constants
}

func (m *MemRef) String() string {
	return fmt.Sprintf("%s %s[%d]@%s", m.Elem, m.Name, m.Size, m.Space)
}

// Param is a scalar kernel parameter bound to a virtual register on entry.
type Param struct {
	Name string
	Reg  Reg
}

// Block is a basic block: a straight-line run of instructions ending in
// a terminator.
type Block struct {
	Name   string
	Instrs []*Instr

	// Preds/Succs are recomputed by Func.ComputeCFG.
	Preds []*Block
	Succs []*Block
}

// Terminator returns the block's final instruction, or nil if the block
// is empty or unterminated.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.Op.IsTerminator() {
		return nil
	}
	return t
}

// Body returns the block's instructions excluding its terminator.
func (b *Block) Body() []*Instr {
	if b.Terminator() != nil {
		return b.Instrs[:len(b.Instrs)-1]
	}
	return b.Instrs
}

// Append adds an instruction to the end of the block.
func (b *Block) Append(in *Instr) *Instr {
	b.Instrs = append(b.Instrs, in)
	return in
}

// Func is a compiled kernel: scalar parameters, memory references and a
// CFG of basic blocks. Entry is Blocks[0].
type Func struct {
	Name    string
	Params  []Param   // scalar parameters, in declaration order
	Mems    []*MemRef // all memory references (params first, then locals)
	Blocks  []*Block
	Loop    *LoopInfo // the schedulable pixel loop, if any
	nextReg Reg
	nextBlk int
}

// NewFunc creates an empty function.
func NewFunc(name string) *Func {
	return &Func{Name: name}
}

// NewReg allocates a fresh virtual register.
func (f *Func) NewReg() Reg {
	r := f.nextReg
	f.nextReg++
	return r
}

// NumRegs returns the number of virtual registers allocated so far.
func (f *Func) NumRegs() int { return int(f.nextReg) }

// SetNumRegs raises the virtual register counter; used by passes that
// renumber registers wholesale.
func (f *Func) SetNumRegs(n int) {
	if Reg(n) > f.nextReg {
		f.nextReg = Reg(n)
	}
}

// NewBlock creates a new basic block with a unique name derived from hint.
func (f *Func) NewBlock(hint string) *Block {
	b := &Block{Name: fmt.Sprintf("%s%d", hint, f.nextBlk)}
	f.nextBlk++
	f.Blocks = append(f.Blocks, b)
	return b
}

// Entry returns the function's entry block.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// AddScalarParam declares a scalar parameter bound to a fresh register.
func (f *Func) AddScalarParam(name string) Param {
	p := Param{Name: name, Reg: f.NewReg()}
	f.Params = append(f.Params, p)
	return p
}

// AddMem declares a memory reference.
func (f *Func) AddMem(m *MemRef) *MemRef {
	f.Mems = append(f.Mems, m)
	return m
}

// MemByName looks up a memory reference by name, or nil.
func (f *Func) MemByName(name string) *MemRef {
	for _, m := range f.Mems {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// ComputeCFG recomputes predecessor and successor lists from terminators.
func (f *Func) ComputeCFG() {
	for _, b := range f.Blocks {
		b.Preds = b.Preds[:0]
		b.Succs = b.Succs[:0]
	}
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil {
			continue
		}
		for _, s := range t.Targets {
			b.Succs = append(b.Succs, s)
			s.Preds = append(s.Preds, b)
		}
	}
}

// RemoveUnreachable drops blocks not reachable from the entry and
// recomputes the CFG. It returns the number of blocks removed.
func (f *Func) RemoveUnreachable() int {
	if len(f.Blocks) == 0 {
		return 0
	}
	f.ComputeCFG()
	seen := map[*Block]bool{f.Blocks[0]: true}
	work := []*Block{f.Blocks[0]}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	kept := f.Blocks[:0]
	removed := 0
	for _, b := range f.Blocks {
		if seen[b] {
			kept = append(kept, b)
		} else {
			removed++
		}
	}
	f.Blocks = kept
	f.ComputeCFG()
	return removed
}

// CloneShell clones the function's header — parameters, memory
// references, register/block counters and loop metadata — plus empty
// same-named blocks, returning the new function and the old→new block
// mapping. Callers fill each block's instruction list (cloning through
// a Slab, which remaps branch targets through the map) and then call
// ComputeCFG; see Clone for the plain deep copy and
// sched.PartitionClone for a fused fill.
func (f *Func) CloneShell() (*Func, map[*Block]*Block) {
	nf := &Func{
		Name:    f.Name,
		Params:  append([]Param(nil), f.Params...),
		Mems:    append([]*MemRef(nil), f.Mems...),
		Blocks:  make([]*Block, len(f.Blocks)),
		nextReg: f.nextReg,
		nextBlk: f.nextBlk,
	}
	blocks := make([]Block, len(f.Blocks))
	bmap := make(map[*Block]*Block, len(f.Blocks))
	for i, b := range f.Blocks {
		nb := &blocks[i]
		nb.Name = b.Name
		bmap[b] = nb
		nf.Blocks[i] = nb
	}
	if f.Loop != nil {
		nf.Loop = f.Loop.remap(bmap)
	}
	return nf, bmap
}

// Slab is the storage behind instructions made in bulk — a cloned
// function's, or the ones an optimizer pass or a spill rewrite emits:
// instructions, operands and branch targets are cut from arrays sized
// for many of them, so making one costs no allocation of its own. It is
// heap memory that belongs to the function — the instructions point
// into it and keep it alive — and never part of a reusable arena:
// compile results, their scheduled ops and cached partition classes
// hold on to instructions long after the call that made them.
//
// A slab grows: when an array is used up the next instruction starts a
// fresh one (the old one lives on through the instructions cut from
// it), sized by Expect. The zero value is an empty slab.
type Slab struct {
	instrs  []Instr
	args    []Operand
	targets []*Block

	// the size of the next arrays: what the owner said it would still
	// take when the current ones are used up (see Expect); zero once
	// that has been granted
	moreInstrs, moreArgs int
}

// minSlabChunk is the least a slab grows by on its own account: when
// its owner's Expect fell short, or was never called, an array grows by
// half the one before it and at least this.
const minSlabChunk = 32

// NewSlab returns a slab with room to clone each of f's instructions
// once.
func (f *Func) NewSlab() Slab {
	var instrs, args, targets int
	for _, b := range f.Blocks {
		instrs += len(b.Instrs)
		for _, in := range b.Instrs {
			args += len(in.Args)
			targets += len(in.Targets)
		}
	}
	return Slab{
		instrs:  make([]Instr, 0, instrs),
		args:    make([]Operand, 0, args),
		targets: make([]*Block, 0, targets),
	}
}

// Expect tells the slab that its owner is about to take some instrs
// instructions with args operands between them — a pass sizes this from
// the function it rewrites. The room already there counts: when it is
// used up, the slab grows by what is then still missing, so a pass that
// takes what it announced leaves nothing unused and costs at most one
// array of each kind.
func (s *Slab) Expect(instrs, args int) {
	s.moreInstrs = instrs - (cap(s.instrs) - len(s.instrs))
	s.moreArgs = args - (cap(s.args) - len(s.args))
}

// take cuts n elements off the unused end of *buf, starting a fresh
// array when fewer are left: of *more elements, the owner's estimate,
// which that uses up — or, without one, of the slab's own choosing.
func take[T any](buf *[]T, n int, more *int) []T {
	s := *buf
	if cap(s)-len(s) < n {
		size := *more
		if size <= 0 {
			size = max(minSlabChunk, cap(s)/2)
		}
		s = make([]T, 0, max(n, size))
		*more = 0
	}
	k := len(s)
	*buf = s[:k+n]
	return s[k : k+n : k+n]
}

// New is NewInstr into the slab: the instruction and a copy of args are
// cut from the slab's arrays. Args is cut to its length, so appending to
// it cannot reach a neighbour's, and is nil when there are none.
func (s *Slab) New(op Op, dest Reg, args ...Operand) *Instr {
	in := &take(&s.instrs, 1, &s.moreInstrs)[0]
	in.Op, in.Dest = op, dest
	if len(args) > 0 {
		in.Args = take(&s.args, len(args), &s.moreArgs)
		copy(in.Args, args)
	}
	return in
}

// Clone is Instr.Clone into the slab, with the copy's branch targets
// remapped through bmap (kept as they are when bmap is nil). The copy's
// Args and Targets are cut to their length and are nil when empty, as
// Instr.Clone leaves them.
func (s *Slab) Clone(in *Instr, bmap map[*Block]*Block) *Instr {
	cp := &take(&s.instrs, 1, &s.moreInstrs)[0]
	*cp = *in
	cp.Args, cp.Targets = nil, nil
	if k := len(in.Args); k > 0 {
		cp.Args = take(&s.args, k, &s.moreArgs)
		copy(cp.Args, in.Args)
	}
	if k := len(in.Targets); k > 0 {
		var none int // branch targets are never announced
		cp.Targets = take(&s.targets, k, &none)
		for i, t := range in.Targets {
			if bmap != nil {
				t = bmap[t]
			}
			cp.Targets[i] = t
		}
	}
	return cp
}

// Clone returns a deep copy of the function. MemRefs are shared (they
// are identity objects naming storage, not mutable state).
func (f *Func) Clone() *Func {
	nf, bmap := f.CloneShell()
	slab := f.NewSlab()
	for i, b := range f.Blocks {
		instrs := make([]*Instr, len(b.Instrs))
		for j, in := range b.Instrs {
			instrs[j] = slab.Clone(in, bmap)
		}
		nf.Blocks[i].Instrs = instrs
	}
	nf.ComputeCFG()
	return nf
}

// NumInstrs returns the total instruction count across all blocks.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}
