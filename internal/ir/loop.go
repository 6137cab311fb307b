package ir

// LoopInfo describes the kernel's schedulable pixel loop in rotated
// form. The frontend fully unrolls constant-trip inner loops at lowering
// time, so a kernel carries at most one LoopInfo: the streaming loop
// over output pixels whose unroll factor the design-space explorer
// varies ("unroll until the compiler spills").
//
// Rotated shape:
//
//	Preheader: ... guard = cmplt i, limit; cbr guard, Header, Exit
//	Header:    <kernel body> ... i = i + Step; t = cmplt i, limit; cbr t, Header, Exit
//	Exit:      ...
//
// When Header == Latch the loop body is a single basic block and is
// eligible for unrolling; if-conversion is what typically collapses a
// multi-block body into this form.
type LoopInfo struct {
	Preheader *Block
	Header    *Block // loop entry; equals Latch for single-block loops
	Latch     *Block // block carrying the back edge
	Exit      *Block

	IndVar Reg     // home register of the induction variable
	Limit  Operand // loop bound (i < Limit)
	Step   int32   // induction increment, currently always 1
}

// SingleBlock reports whether the loop body is one basic block and thus
// eligible for unrolling and software-pipelining-style scheduling.
func (l *LoopInfo) SingleBlock() bool { return l.Header == l.Latch }

// remap rewires block pointers through m (used by Func.Clone).
func (l *LoopInfo) remap(m map[*Block]*Block) LoopInfo {
	cp := *l
	if b, ok := m[l.Preheader]; ok {
		cp.Preheader = b
	}
	if b, ok := m[l.Header]; ok {
		cp.Header = b
	}
	if b, ok := m[l.Latch]; ok {
		cp.Latch = b
	}
	if b, ok := m[l.Exit]; ok {
		cp.Exit = b
	}
	return cp
}
