package ir

import "fmt"

// Verify checks structural invariants of the function and returns the
// first violation found, or nil. It is run after every pass in tests and
// in the compiler's debug mode.
//
// Checked invariants:
//   - every block is non-empty and ends in exactly one terminator;
//   - terminators appear only in final position;
//   - branch targets are blocks of this function;
//   - operand counts match the opcode;
//   - destination presence matches Op.HasDest;
//   - register ids are within the allocated range;
//   - memory ops carry a MemRef owned by the function;
//   - every register used is defined on every path from entry (a
//     conservative forward dataflow check).
func (f *Func) Verify() error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("%s: function has no blocks", f.Name)
	}
	index := make(map[*Block]int, len(f.Blocks))
	for i, b := range f.Blocks {
		index[b] = i
	}
	memOK := make(map[*MemRef]bool, len(f.Mems))
	for _, m := range f.Mems {
		memOK[m] = true
	}
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("%s: block %s is empty", f.Name, b.Name)
		}
		for i, in := range b.Instrs {
			last := i == len(b.Instrs)-1
			if in.Op.IsTerminator() != last {
				if last {
					return fmt.Errorf("%s: block %s does not end in a terminator", f.Name, b.Name)
				}
				return fmt.Errorf("%s: block %s has terminator %s mid-block", f.Name, b.Name, in)
			}
			if err := f.verifyInstr(b, in, index, memOK); err != nil {
				return err
			}
		}
	}
	return f.verifyDefsDominate(index)
}

func (f *Func) verifyInstr(b *Block, in *Instr, index map[*Block]int, memOK map[*MemRef]bool) error {
	if in.Op == OpFused {
		if in.Fused == nil {
			return fmt.Errorf("%s/%s: %s has nil fused spec", f.Name, b.Name, in)
		}
		if err := in.Fused.Validate(); err != nil {
			return fmt.Errorf("%s/%s: %s: %w", f.Name, b.Name, in, err)
		}
		if got, want := len(in.Args), in.Fused.NIn; got != want {
			return fmt.Errorf("%s/%s: %s has %d args, spec wants %d", f.Name, b.Name, in, got, want)
		}
	} else {
		if in.Fused != nil {
			return fmt.Errorf("%s/%s: %s has spurious fused spec", f.Name, b.Name, in)
		}
		if got, want := len(in.Args), in.Op.NArgs(); got != want {
			return fmt.Errorf("%s/%s: %s has %d args, want %d", f.Name, b.Name, in, got, want)
		}
	}
	if in.Op.HasDest() {
		if in.Dest == NoReg {
			return fmt.Errorf("%s/%s: %s missing destination", f.Name, b.Name, in)
		}
		if int(in.Dest) >= f.NumRegs() {
			return fmt.Errorf("%s/%s: %s dest out of range (%d regs)", f.Name, b.Name, in, f.NumRegs())
		}
	} else if in.Dest != NoReg {
		return fmt.Errorf("%s/%s: %s has spurious destination", f.Name, b.Name, in)
	}
	for _, a := range in.Args {
		if a.Kind == OperReg && (a.Reg < 0 || int(a.Reg) >= f.NumRegs()) {
			return fmt.Errorf("%s/%s: %s uses out-of-range register %d", f.Name, b.Name, in, a.Reg)
		}
	}
	if in.Op.IsMem() {
		if in.Mem == nil {
			return fmt.Errorf("%s/%s: %s has nil MemRef", f.Name, b.Name, in)
		}
		if !memOK[in.Mem] {
			return fmt.Errorf("%s/%s: %s references foreign MemRef %s", f.Name, b.Name, in, in.Mem.Name)
		}
		if in.Op == OpStore && in.Mem.Const {
			return fmt.Errorf("%s/%s: %s writes constant memory %s", f.Name, b.Name, in, in.Mem.Name)
		}
	} else if in.Mem != nil {
		return fmt.Errorf("%s/%s: %s has spurious MemRef", f.Name, b.Name, in)
	}
	switch in.Op {
	case OpBr:
		if len(in.Targets) != 1 {
			return fmt.Errorf("%s/%s: br with %d targets", f.Name, b.Name, len(in.Targets))
		}
	case OpCBr:
		if len(in.Targets) != 2 {
			return fmt.Errorf("%s/%s: cbr with %d targets", f.Name, b.Name, len(in.Targets))
		}
	default:
		if len(in.Targets) != 0 {
			return fmt.Errorf("%s/%s: %s has spurious targets", f.Name, b.Name, in)
		}
	}
	for _, t := range in.Targets {
		if _, ok := index[t]; !ok {
			return fmt.Errorf("%s/%s: branch to foreign block %s", f.Name, b.Name, t.Name)
		}
	}
	return nil
}

// verifyDefsDominate runs a forward "definitely-assigned" dataflow: a
// register may be used only if it is defined on every path from entry.
// index maps each block to its position in f.Blocks.
func (f *Func) verifyDefsDominate(index map[*Block]int) error {
	f.ComputeCFG()
	n := f.NumRegs()
	words := (n + 63) / 64
	// sets holds in[b], the registers definitely defined at entry to
	// block b, for every block in order, and then cur, a scratch set.
	sets := make([]uint64, (len(f.Blocks)+1)*words)
	in := func(i int) bitset { return bitset(sets[i*words : (i+1)*words]) }
	cur := in(len(f.Blocks))
	for i := 1; i < len(f.Blocks); i++ {
		in(i).fill(n) // top = all defined
	}
	for _, p := range f.Params {
		in(0).set(int(p.Reg))
	}
	changed := true
	for changed {
		changed = false
		for i, b := range f.Blocks {
			copy(cur, in(i))
			for _, instr := range b.Instrs {
				if instr.Op.HasDest() {
					cur.set(int(instr.Dest))
				}
			}
			for _, s := range b.Succs {
				if in(index[s]).intersectWith(cur) {
					changed = true
				}
			}
		}
	}
	for i, b := range f.Blocks {
		copy(cur, in(i))
		for _, instr := range b.Instrs {
			for _, a := range instr.Args {
				if a.Kind == OperReg && !cur.get(int(a.Reg)) {
					return fmt.Errorf("%s/%s: %s uses possibly-undefined register %s", f.Name, b.Name, instr, a.Reg)
				}
			}
			if instr.Op.HasDest() {
				cur.set(int(instr.Dest))
			}
		}
	}
	return nil
}

// bitset is a minimal dense bitset used by dataflow analyses.
type bitset []uint64

func (s bitset) set(i int)      { s[i/64] |= 1 << (uint(i) % 64) }
func (s bitset) get(i int) bool { return s[i/64]&(1<<(uint(i)%64)) != 0 }

// fill sets bits 0 to n-1.
func (s bitset) fill(n int) {
	for i := range s {
		s[i] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		s[len(s)-1] = 1<<r - 1
	}
}

// intersectWith intersects s with o in place and reports whether s changed.
func (s bitset) intersectWith(o bitset) bool {
	changed := false
	for i := range s {
		nw := s[i] & o[i]
		if nw != s[i] {
			changed = true
			s[i] = nw
		}
	}
	return changed
}
