package opt

import (
	"fmt"
	"reflect"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/idle/idletest"
	"customfit/internal/ir"
	"customfit/internal/obs"
)

func lowered(t *testing.T, name string) *ir.Func {
	t.Helper()
	fn, err := bench.ByName(name).Compile()
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

// TestWorkspaceCarriesNothingOver runs kernels A, C and A again through
// one workspace — optimize and unroll, so every pass and every table is
// used, on functions of different sizes, block counts and memories —
// and requires the second A to come out as the first did, and both as a
// workspace of their own gives them: no binding, value number, liveness
// set or instruction list of one block, pass or function may reach the
// next.
func TestWorkspaceCarriesNothingOver(t *testing.T) {
	prepare := func(ws *workspace, name string, u int) *ir.Func {
		g := lowered(t, name).Clone()
		if err := ws.optimize(nil, g, Passes{}); err != nil {
			t.Fatal(err)
		}
		if err := ws.unrollSpan(nil, g, u, Passes{}); err != nil {
			t.Fatal(err)
		}
		g.Own() // as run does, before the buffers serve the next function
		return g
	}
	ws := new(workspace)
	first := prepare(ws, "A", 4)
	prepare(ws, "C", 2)
	prepare(ws, "F", 8) // the one with branches to convert and arrays to scalarize
	second := prepare(ws, "A", 4)
	fresh := prepare(new(workspace), "A", 4)
	if first.String() != fresh.String() || first.NumRegs() != fresh.NumRegs() {
		t.Error("kernel A through a fresh workspace and through a shared one differ")
	}
	if second.String() != first.String() || second.NumRegs() != first.NumRegs() {
		t.Error("kernel A came out differently the second time through one workspace: state leaked")
	}
}

// TestCleanAllocatesPerBlock pins the cleaner's cost model without a
// hand-set number, as ir.TestCloneAllocatesPerBlock pins Clone's: through
// a warm workspace the tables are there, emitted instructions and
// operands come out of one slab array each per pass and what is left is
// per block — so cleaning (a fresh clone of) kernel A unrolled eight
// times, the same blocks with well over twice the instructions, must
// not cost one allocation more than unrolled twice.
func TestCleanAllocatesPerBlock(t *testing.T) {
	fn := lowered(t, "A")
	ws := new(workspace)
	count := func(u int) (float64, *ir.Func) {
		g, err := Prepare(fn, u)
		if err != nil {
			t.Fatal(err)
		}
		ws.cleanFunc(g.Clone()) // grows the tables
		return testing.AllocsPerRun(5, func() { ws.cleanFunc(g.Clone()) }), g
	}
	a8, g8 := count(8) // the larger first, so neither run grows the workspace
	a2, g2 := count(2)
	if len(g2.Blocks) != len(g8.Blocks) || g8.NumInstrs() < 2*g2.NumInstrs() {
		t.Fatalf("unroll 2: %d blocks, %d instructions; unroll 8: %d, %d — not the pair the test wants",
			len(g2.Blocks), g2.NumInstrs(), len(g8.Blocks), g8.NumInstrs())
	}
	if a2 != a8 {
		t.Errorf("Clean (of a clone) allocates %v times at unroll 2 and %v at unroll 8: it should depend on blocks alone", a2, a8)
	}
	t.Logf("%v allocations per clone and clean of %d blocks", a2, len(g2.Blocks))
}

// TestReleasedArenaPinsNothing prepares kernel F — branches to convert,
// arrays to scalarize, so every pass leaves its lists behind — out of a
// borrowed workspace and drops source and result. The released
// workspace must hold no reference at all (idletest.Pinned walks every
// list to its capacity), and the collector must agree: the function and
// the memory references its instructions name are collected while the
// workspace sits idle in the list, which it does throughout: taking it
// and handing it back between collections keeps the list from ageing it
// out, and no second one is made.
func TestReleasedArenaPinsNothing(t *testing.T) {
	col := obs.NewCollector()
	obs.Install(col)
	defer obs.Install(nil)
	made := col.Counter("opt.arenas_made")

	var gone idletest.Watch
	var before int64
	func() {
		f := lowered(t, "F")
		g, err := Prepare(f, 4)
		if err != nil {
			t.Fatal(err)
		}
		before = made.Value()
		ws := workspaces.Get() // the one Prepare just gave back
		ws.release()
		for _, path := range idletest.Pinned(ws) {
			t.Errorf("the released workspace still holds %s", path)
		}
		gone.Add(g, "the prepared function")
		for _, m := range f.Mems {
			gone.Add(m, "memory "+m.Name)
		}
	}()
	for _, name := range gone.Wait(func() { workspaces.Get().release() }) {
		t.Errorf("an idle workspace pins %s", name)
	}
	if made.Value() != before {
		t.Error("the workspace did not stay idle in the list while the function was collected")
	}
}

// nextBuffer returns the arrays of the buffer the next whole-function
// re-emit will reset and write (see workspace) — instructions, operands,
// branch targets, lists — as address ranges, read out of ir.Slab by
// reflection.
func nextBuffer(ws *workspace) [][2]uintptr {
	s := reflect.ValueOf(&ws.bufs[ws.live^1]).Elem()
	var spans [][2]uintptr
	for _, kind := range []string{"instrs", "args", "targets", "lists"} {
		buf := s.FieldByName(kind).FieldByName("buf")
		if buf.Cap() > 0 {
			p := buf.Pointer()
			spans = append(spans, [2]uintptr{p, p + uintptr(buf.Cap())*buf.Type().Elem().Size()})
		}
	}
	return spans
}

// inNextBuffer returns a description of the first instruction of f that
// lies, with its operands, branch targets or block list, in the buffer
// the next whole-function pass writes, or "".
func inNextBuffer(ws *workspace, f *ir.Func) string {
	spans := nextBuffer(ws)
	in := func(v reflect.Value) bool {
		if v.IsNil() {
			return false
		}
		for _, s := range spans {
			if p := v.Pointer(); s[0] <= p && p < s[1] {
				return true
			}
		}
		return false
	}
	for _, b := range f.Blocks {
		if in(reflect.ValueOf(b.Instrs)) {
			return "the list of " + b.Name
		}
		for _, x := range b.Instrs {
			if in(reflect.ValueOf(x)) || in(reflect.ValueOf(x.Args)) || in(reflect.ValueOf(x.Targets)) {
				return fmt.Sprintf("%s in %s", x, b.Name)
			}
		}
	}
	return ""
}

// TestPassesLeaveTheNextBufferDead runs Prepare's passes one by one
// through one workspace — on kernels with branches to convert, arrays to
// scalarize and reductions to rebalance — and checks after every
// whole-function pass that no instruction of the function lies in the
// buffer the next one will reset and write. The function that comes out
// must be Prepare's.
func TestPassesLeaveTheNextBufferDead(t *testing.T) {
	ws := new(workspace)
	for _, name := range []string{"A", "F", "C", "DHEF"} {
		want, err := Prepare(lowered(t, name), 2)
		if err != nil {
			t.Fatal(err)
		}
		f := lowered(t, name).Clone()
		passes := []struct {
			name string
			run  func(*ir.Func)
		}{
			{"clean", ws.cleanFunc},
			{"scalarize", ws.scalarize},
			{"ifconvert", ws.ifConvert},
			{"licm", ws.licm},
			{"clean", ws.cleanFunc},
			{"reassociate", ws.reassociate},
			{"unroll", func(f *ir.Func) {
				f.RemoveUnreachable()
				if err := ws.unroll(f, 2, Passes{}); err != nil {
					t.Fatal(err)
				}
			}},
		}
		for _, p := range passes {
			p.run(f)
			if what := inNextBuffer(ws, f); what != "" {
				t.Errorf("%s, after %s: %s lies in the buffer the next pass writes", name, p.name, what)
			}
		}
		if f.String() != want.String() {
			t.Errorf("%s: the passes one by one give another function than Prepare", name)
		}
		f.Own()
	}
}
