package ir

import (
	"fmt"
	"strconv"
)

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
	b := &Block{Name: hint + strconv.Itoa(f.nextBlk)}
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
	sh := new(Shell)
	nf, bmap := f.CloneShellInto(sh)
	sh.bmap = nil // the caller's to drop, not the function's to keep
	return nf, bmap
}

// Shell is the memory of a function header and its blocks as CloneShell
// makes them: the Func itself, its loop metadata, the blocks, the block
// list, the parameter and memory lists and the old→new block map. A
// caller that clones one function after another, each dead before the
// next — a spill round's partitioned copy, the spill loop's working copy
// — keeps one and clones into it (CloneShellInto), which costs nothing
// once the Shell has grown. The zero value is ready to use.
type Shell struct {
	f      Func
	loop   LoopInfo
	blocks []Block
	list   []*Block
	params []Param
	mems   []*MemRef
	bmap   map[*Block]*Block
}

// CloneShellInto is CloneShell into sh's memory, which it reuses: the
// function, its blocks and the block map it returns are sh's and are
// valid until the next clone into sh. A block keeps the arrays of its
// predecessor and successor lists for ComputeCFG to refill.
func (f *Func) CloneShellInto(sh *Shell) (*Func, map[*Block]*Block) {
	n := len(f.Blocks)
	if cap(sh.blocks) < n {
		sh.blocks = make([]Block, n)
		sh.list = make([]*Block, n)
	}
	blocks, list := sh.blocks[:n], sh.list[:n]
	if sh.bmap == nil {
		sh.bmap = make(map[*Block]*Block, n)
	} else {
		clear(sh.bmap)
	}
	for i, b := range f.Blocks {
		nb := &blocks[i]
		*nb = Block{Name: b.Name, Preds: nb.Preds[:0], Succs: nb.Succs[:0]}
		sh.bmap[b] = nb
		list[i] = nb
	}
	sh.params = append(sh.params[:0], f.Params...)
	sh.mems = append(sh.mems[:0], f.Mems...)
	sh.f = Func{
		Name:    f.Name,
		Params:  sh.params,
		Mems:    sh.mems,
		Blocks:  list,
		nextReg: f.nextReg,
		nextBlk: f.nextBlk,
	}
	if f.Loop != nil {
		sh.loop = f.Loop.remap(sh.bmap)
		sh.f.Loop = &sh.loop
	}
	return &sh.f, sh.bmap
}

// Forget drops every pointer sh holds into the function it last cloned
// and into the clone, keeping its arrays: what an arena does with a
// Shell before it goes idle.
func (sh *Shell) Forget() {
	sh.f, sh.loop = Func{}, LoopInfo{}
	clear(sh.blocks[:cap(sh.blocks)])
	clear(sh.list[:cap(sh.list)])
	clear(sh.params[:cap(sh.params)])
	clear(sh.mems[:cap(sh.mems)])
	clear(sh.bmap)
}

// Slab is the storage behind instructions made in bulk — a cloned
// function's, or the ones an optimizer pass, a spill round or a spill
// rewrite emits: instructions, operands, branch targets and the blocks'
// instruction lists are cut from arrays sized for many of them, so
// making one costs no allocation of its own.
//
// A slab is one of two things.
//
//   - Owned by the function that points into it: heap memory the
//     function's instructions keep alive and nobody reuses — a clone's
//     (Clone, NewSlab), a lowered kernel's, the exactly sized one Own
//     moves a function into. Compile results, their scheduled ops and
//     cached partition classes hold on to such instructions long after
//     the call that made them.
//   - A round or pass buffer: memory its keeper (a sched.Scratch, an
//     optimizer workspace) reuses for one spill round or optimizer pass
//     after another, whose instructions die with the round or pass that
//     made them. Reset starts the next round or pass, Forget wipes the
//     buffer before its keeper goes idle, and whatever must outlive the
//     round or pass is copied out first (Clone, Own).
//
// A slab grows: when an array is used up the next cut starts a fresh one
// (the old one lives on through what was cut from it), sized by Expect
// or, for a buffer, by Reset. The zero value is an empty slab.
type Slab struct {
	instrs  part[Instr]
	args    part[Operand]
	targets part[*Block]
	lists   part[*Instr]
}

// part is one of a slab's kinds of array.
type part[T any] struct {
	buf []T
	// more is the size of the next array: what the owner said it would
	// still take when buf is used up (see Expect); zero once granted.
	more int
	// took counts what was cut since the last reset, over every array:
	// what the next reset sizes by.
	took int
}

// minSlabChunk is the least a slab grows by on its own account: when
// its owner's Expect fell short, or was never called, an array grows by
// half the one before it and at least this.
const minSlabChunk = 32

// NewSlab returns a slab with room to clone each of f's instructions,
// and the list of each of its blocks, once.
func (f *Func) NewSlab() Slab {
	var instrs, args, targets int
	for _, b := range f.Blocks {
		instrs += len(b.Instrs)
		for _, in := range b.Instrs {
			args += len(in.Args)
			targets += len(in.Targets)
		}
	}
	var s Slab
	s.instrs.buf = make([]Instr, 0, instrs)
	s.args.buf = make([]Operand, 0, args)
	s.targets.buf = make([]*Block, 0, targets)
	s.lists.buf = make([]*Instr, 0, instrs)
	return s
}

// Expect tells the slab that its owner is about to take some instrs
// instructions with args operands between them, and block lists of
// lists entries in all — a pass sizes this from the function it
// rewrites. The room already there counts: when it is used up, the slab
// grows by what is then still missing, so a pass that takes what it
// announced leaves nothing unused and costs at most one array of each
// kind.
func (s *Slab) Expect(instrs, args, lists int) {
	s.instrs.expect(instrs)
	s.args.expect(args)
	s.lists.expect(lists)
}

// Reset empties s for a round or pass whose instructions replace every
// one cut from it so far, all of which must be dead by then, and keeps
// its arrays for it: what makes s a round or pass buffer. An array short
// of what the last round or pass took, or of what the owner expects of
// this one (instrs instructions, args operands), is replaced by one a
// quarter larger than that, because a spill round's function is larger
// than the last one's and an exactly sized buffer would be outgrown
// every round.
func (s *Slab) Reset(instrs, args int) {
	s.instrs.reset(instrs)
	s.args.reset(args)
	s.targets.reset(0)
	s.lists.reset(0)
}

// Forget drops every pointer s's arrays hold, keeping them: what a
// buffer's keeper does before it goes idle. Whatever was cut from s must
// be dead.
func (s *Slab) Forget() {
	s.instrs.forget()
	s.targets.forget()
	s.lists.forget()
}

func (p *part[T]) expect(n int) { p.more = n - (cap(p.buf) - len(p.buf)) }

// take cuts n elements off the unused end of the current array, starting
// a fresh one when fewer are left: of more elements, the owner's
// estimate, which that uses up — or, without one, of the slab's own
// choosing.
func (p *part[T]) take(n int) []T {
	s := p.buf
	if cap(s)-len(s) < n {
		size := p.more
		if size <= 0 {
			size = max(minSlabChunk, cap(s)/2)
		}
		s = make([]T, 0, max(n, size))
		p.more = 0
	}
	k := len(s)
	p.buf = s[:k+n]
	p.took += n
	return s[k : k+n : k+n]
}

func (p *part[T]) reset(n int) {
	if n = max(n, p.took); cap(p.buf) < n {
		p.buf = make([]T, 0, n+n/4)
	} else {
		p.buf = p.buf[:0]
	}
	p.more, p.took = 0, 0
}

func (p *part[T]) forget() { clear(p.buf[:cap(p.buf)]) }

// New is NewInstr into the slab: the instruction and a copy of args are
// cut from the slab's arrays. Args is cut to its length, so appending to
// it cannot reach a neighbour's, and is nil when there are none.
func (s *Slab) New(op Op, dest Reg, args ...Operand) *Instr {
	in := &s.instrs.take(1)[0]
	*in = Instr{Op: op, Dest: dest} // a buffer's array holds an older one here
	if len(args) > 0 {
		in.Args = s.args.take(len(args))
		copy(in.Args, args)
	}
	return in
}

// Clone is Instr.Clone into the slab, with the copy's branch targets
// remapped through bmap (kept as they are when bmap is nil). The copy's
// Args and Targets are cut to their length and are nil when empty, as
// Instr.Clone leaves them.
func (s *Slab) Clone(in *Instr, bmap map[*Block]*Block) *Instr {
	cp := &s.instrs.take(1)[0]
	*cp = *in
	cp.Args, cp.Targets = nil, nil
	if k := len(in.Args); k > 0 {
		cp.Args = s.args.take(k)
		copy(cp.Args, in.Args)
	}
	if k := len(in.Targets); k > 0 {
		cp.Targets = s.targets.take(k)
		for i, t := range in.Targets {
			if bmap != nil {
				t = bmap[t]
			}
			cp.Targets[i] = t
		}
	}
	return cp
}

// List cuts a block's instruction list of n entries, all nil. It is cut
// to its length, so a block that grows past it copies it out of the
// slab.
func (s *Slab) List(n int) []*Instr {
	l := s.lists.take(n)
	clear(l)
	return l
}

// Clone returns a deep copy of the function. MemRefs are shared (they
// are identity objects naming storage, not mutable state).
func (f *Func) Clone() *Func {
	slab := f.NewSlab()
	sh := new(Shell)
	nf := f.CloneInto(sh, &slab)
	sh.bmap = nil
	return nf
}

// CloneInto is Clone into memory the caller keeps: the copy's header and
// blocks are sh's (CloneShellInto), its instructions and their lists are
// cut from s.
func (f *Func) CloneInto(sh *Shell, s *Slab) *Func {
	nf, bmap := f.CloneShellInto(sh)
	for i, b := range f.Blocks {
		list := s.List(len(b.Instrs))
		for j, in := range b.Instrs {
			list[j] = s.Clone(in, bmap)
		}
		nf.Blocks[i].Instrs = list
	}
	nf.ComputeCFG()
	return nf
}

// Own moves every instruction of f, with its operands and branch
// targets, and every block's instruction list into one slab of f's own,
// sized exactly. Passes that cut them from buffers they reuse (see Slab)
// call it before the buffers serve anything else; afterwards nothing of
// f lies in memory someone else writes. The instructions are new, what
// they say is not.
func (f *Func) Own() {
	s := f.NewSlab()
	for _, b := range f.Blocks {
		list := s.List(len(b.Instrs))
		for i, in := range b.Instrs {
			list[i] = s.Clone(in, nil)
		}
		b.Instrs = list
	}
}

// Size counts f's instructions and their operands.
func (f *Func) Size() (instrs, args int) {
	for _, b := range f.Blocks {
		instrs += len(b.Instrs)
		for _, in := range b.Instrs {
			args += len(in.Args)
		}
	}
	return instrs, args
}

// NumInstrs returns the total instruction count across all blocks.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}
