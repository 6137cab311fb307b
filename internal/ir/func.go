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

// Slab is the storage behind one cloned function's instructions: three
// arrays sized for all of them, so cloning costs a constant number of
// allocations instead of two per instruction. It is heap memory that
// belongs to the clone — the instructions point into it and keep it
// alive — and never part of a reusable arena: compile results, their
// scheduled ops and cached partition classes hold on to cloned
// instructions long after the call that made them.
type Slab struct {
	instrs  []Instr
	args    []Operand
	targets []*Block
}

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

// Clone is Instr.Clone into the slab, with the copy's branch targets
// remapped through bmap. The copy's Args and Targets are cut to their
// length, so appending to one cannot reach a neighbour's, and are nil
// when empty, as Instr.Clone leaves them. Cloning more than the slab
// was sized for panics.
func (s *Slab) Clone(in *Instr, bmap map[*Block]*Block) *Instr {
	n := len(s.instrs)
	s.instrs = s.instrs[:n+1]
	cp := &s.instrs[n]
	*cp = *in
	cp.Args, cp.Targets = nil, nil
	if k := len(in.Args); k > 0 {
		n := len(s.args)
		s.args = s.args[:n+k]
		cp.Args = s.args[n : n+k : n+k]
		copy(cp.Args, in.Args)
	}
	if k := len(in.Targets); k > 0 {
		n := len(s.targets)
		s.targets = s.targets[:n+k]
		cp.Targets = s.targets[n : n+k : n+k]
		for i, t := range in.Targets {
			cp.Targets[i] = bmap[t]
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
