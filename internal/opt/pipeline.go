package opt

import (
	"customfit/internal/ir"
	"customfit/internal/obs"
)

// Passes switches passes of the pipeline off, each in isolation; the
// zero value is the shipped pipeline. The compiler ablations (see
// EXPERIMENTS.md) measure how much each pass contributes.
type Passes struct {
	// NoReassociation skips reduction-tree rebalancing.
	NoReassociation bool
	// NoLICM skips loop-invariant code motion.
	NoLICM bool
	// NoIfConversion skips if-conversion (pixel loops with control
	// flow then cannot be unrolled).
	NoIfConversion bool
}

// irSize measures a function for span attributes: basic blocks and
// instructions.
func irSize(f *ir.Func) (blocks, instrs int64) {
	return int64(len(f.Blocks)), int64(f.NumInstrs())
}

// tracedPass runs one pass under a span carrying the IR-size delta
// (blocks/instrs before→after), so pass cost and pass benefit are both
// visible in a trace. With no collector installed this is a plain call.
func tracedPass(parent *obs.Span, name string, f *ir.Func, pass func(*ir.Func)) {
	if parent == nil {
		pass(f)
		return
	}
	sp := parent.Child(name)
	b0, i0 := irSize(f)
	pass(f)
	b1, i1 := irSize(f)
	sp.Int("blocks_before", b0).Int("blocks_after", b1).
		Int("instrs_before", i0).Int("instrs_after", i1).End()
}

// Optimize runs the architecture-independent pass pipeline:
//
//  1. Clean       — renaming, folding, CSE, strength reduction, DCE
//  2. Scalarize   — promote constant-indexed local arrays to registers
//  3. IfConvert   — collapse branchy pixel-loop bodies into selects
//  4. LICM        — hoist invariants (notably constant-table loads)
//  5. Clean       — tidy after motion
//  6. Reassociate — rebalance reduction chains into trees
//
// The result is the canonical pre-scheduling form: a single-block pixel
// loop when the kernel's control flow allows it.
func Optimize(f *ir.Func) error {
	return OptimizeSpan(nil, f, Passes{})
}

// OptimizeSpan is Optimize with the passes ps leaves on and per-pass
// telemetry spans nested under sp (or under a fresh root span when sp
// is nil and a collector is installed).
func OptimizeSpan(sp *obs.Span, f *ir.Func, ps Passes) (err error) {
	run(f, func(ws *workspace, f *ir.Func) { err = ws.optimize(sp, f, ps) })
	return err
}

func (ws *workspace) optimize(sp *obs.Span, f *ir.Func, ps Passes) error {
	osp := obs.Under(sp, "opt")
	defer osp.End()
	tracedPass(osp, "opt.clean", f, ws.cleanFunc)
	tracedPass(osp, "opt.scalarize", f, ws.scalarize)
	if !ps.NoIfConversion {
		tracedPass(osp, "opt.ifconvert", f, ws.ifConvert)
	}
	if !ps.NoLICM {
		tracedPass(osp, "opt.licm", f, ws.licm)
	}
	tracedPass(osp, "opt.clean", f, ws.cleanFunc)
	if !ps.NoReassociation {
		tracedPass(osp, "opt.reassoc", f, ws.reassociate)
	}
	f.RemoveUnreachable()
	return f.Verify()
}

// UnrollSpan is the second half of Prepare: it unrolls the pixel loop of
// f, optimized under ps, by u, in place, under an opt.unroll span
// nested under sp. A factor of 1, and a kernel without a pixel loop,
// leave f as it is.
func UnrollSpan(sp *obs.Span, f *ir.Func, u int, ps Passes) (err error) {
	if u <= 1 || f.Loop == nil {
		return nil
	}
	run(f, func(ws *workspace, f *ir.Func) { err = ws.unrollSpan(sp, f, u, ps) })
	return err
}

func (ws *workspace) unrollSpan(sp *obs.Span, f *ir.Func, u int, ps Passes) error {
	if u <= 1 || f.Loop == nil {
		return nil
	}
	usp := obs.Under(sp, "opt.unroll").Int("factor", int64(u))
	b0, i0 := irSize(f)
	err := ws.unroll(f, u, ps)
	b1, i1 := irSize(f)
	usp.Int("blocks_before", b0).Int("blocks_after", b1).
		Int("instrs_before", i0).Int("instrs_after", i1).End()
	return err
}

// Prepare clones f, optimizes it, and unrolls the pixel loop by u —
// the per-(architecture, unroll-factor) compilation entry point. The
// original function is never mutated.
func Prepare(f *ir.Func, u int) (*ir.Func, error) {
	return PrepareSpan(nil, f, u)
}

// PrepareSpan is Prepare with telemetry spans under sp. It is its two
// halves, OptimizeSpan and UnrollSpan, on one clone of f and out of one
// workspace, and the result moves into a slab of its own once, at the
// end. The first half does not depend on u: a caller preparing one
// kernel at several factors optimizes a clone once and hands a clone of
// that to UnrollSpan per factor (the explorer's evaluator does), with
// the same result.
func PrepareSpan(sp *obs.Span, f *ir.Func, u int) (*ir.Func, error) {
	g := f.Clone()
	var err error
	run(g, func(ws *workspace, g *ir.Func) {
		if err = ws.optimize(sp, g, Passes{}); err == nil {
			err = ws.unrollSpan(sp, g, u, Passes{})
		}
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}
