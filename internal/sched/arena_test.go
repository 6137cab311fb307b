package sched

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"customfit/internal/cc"
	"customfit/internal/idle/idletest"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/obs"
	"customfit/internal/opt"
	"customfit/internal/regalloc"
)

// arenaCounters installs a collector for the test and returns a reader
// of sched.arenas_made and sched.arenas_reused.
func arenaCounters(t *testing.T) func() (made, reused int64) {
	col := obs.NewCollector()
	obs.Install(col)
	t.Cleanup(func() { obs.Install(nil) })
	return func() (int64, int64) {
		return col.Counter("sched.arenas_made").Value(), col.Counter("sched.arenas_reused").Value()
	}
}

// spillingCell is a clustered machine on which pipeSrc at unroll 4 needs
// three spill rounds (TestCompilePreparedConcurrentSharing asserts it).
var spillingCell = machine.Arch{ALUs: 8, MULs: 2, Regs: 32, L2Ports: 1, L2Lat: 4, Clusters: 4}

func preparePipe(t *testing.T, u int) *ir.Func {
	t.Helper()
	fn, err := cc.CompileKernel(pipeSrc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := opt.Prepare(fn, u)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestReleasedArenaPinsNothing compiles a kernel cold and through the
// delta path and validates it, all out of one arena, gives the arena
// back and drops everything else. The released arena must hold no
// reference at all (idletest.Pinned walks every list to its capacity),
// and the collector must agree: the kernel, the delta class's
// partitioned copy and the memory references their instructions name
// are collected while the arena sits idle in the list — which it does
// throughout, as no arena is made (arenas_made) from the first
// GetScratch on.
func TestReleasedArenaPinsNothing(t *testing.T) {
	read := arenaCounters(t)
	var gone idletest.Watch
	func() {
		g := preparePipe(t, 4)
		prep := NewPrepared(g)
		set, err := machine.ParseOpCatalog([]string{"mac/3/2:mul $0 $1;add %0 $2"})
		if err != nil {
			t.Fatal(err)
		}
		sc := GetScratch()
		res, err := CompilePreparedDelta(nil, prep, testArchs[2], sc)
		if err != nil {
			t.Fatal(err)
		}
		gone.Add(res.Prog.F, "the delta class's partitioned copy")
		// The op-enabled machine last: what the arena's resource tables
		// last saw names the op catalog.
		for _, arch := range []machine.Arch{testArchs[2], spillingCell, machine.Baseline, testArchs[3].WithOps(set, set.FullMask())} {
			res, err := CompilePrepared(nil, prep, arch, sc)
			if err != nil {
				t.Fatal(err)
			}
			if err := Validate(res.Prog); err != nil {
				t.Fatal(err)
			}
		}
		gone.Add(g, "the prepared kernel")
		for _, m := range g.Mems {
			gone.Add(m, "memory "+m.Name)
		}
		PutScratch(sc)
		for _, path := range idletest.Pinned(sc, reflect.TypeOf(regalloc.Scratch{})) {
			t.Errorf("the released arena still holds %s", path)
		}
	}()
	made, _ := read()
	for _, name := range gone.Wait(func() { PutScratch(GetScratch()) }) {
		t.Errorf("an idle arena pins %s", name)
	}
	if now, _ := read(); now != made {
		t.Error("the arena did not stay idle in the list while the kernel was collected")
	}
}

// TestArenasUnderCollection has eight goroutines take an arena, compile
// and validate out of it and give it back, cell after cell, while
// another forces collection after collection — the list's ageing tick
// racing Get and Put. Every result must be the serial compile's. `make
// race` runs it under the race detector.
func TestArenasUnderCollection(t *testing.T) {
	cells := append([]machine.Arch{spillingCell}, testArchs...)
	prep := NewPrepared(preparePipe(t, 4))
	digest := func(arch machine.Arch, sc *Scratch) (string, error) {
		res, err := CompilePrepared(nil, prep, arch, sc)
		if err != nil {
			return "", err
		}
		if err := Validate(res.Prog); err != nil {
			return "", err
		}
		var d strings.Builder
		scheduleDigest(&d, res, nil)
		return d.String(), nil
	}
	want := make([]string, len(cells))
	for i, arch := range cells {
		var err error
		if want[i], err = digest(arch, NewScratch()); err != nil {
			t.Fatalf("serial compile %s: %v", arch, err)
		}
	}

	stop := make(chan struct{})
	var gc sync.WaitGroup
	gc.Add(1)
	go func() {
		defer gc.Done()
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 8*len(cells))
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range cells {
				i := (k + w) % len(cells)
				sc := GetScratch()
				got, err := digest(cells[i], sc)
				PutScratch(sc)
				if err != nil {
					errs <- fmt.Errorf("worker %d, %s: %v", w, cells[i], err)
				} else if got != want[i] {
					errs <- fmt.Errorf("worker %d, %s: result differs from the serial compile's", w, cells[i])
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	gc.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDeltaResultOwnedWithoutArena pins the one arena rule on the delta
// entry: handed no arena, CompilePreparedDelta borrows one from the idle
// list for the call — no arena of its own per call — and returns a
// Result that owns its memory, so it reads the same after later compiles
// have borrowed, and reassembled programs in, that very arena.
func TestDeltaResultOwnedWithoutArena(t *testing.T) {
	read := arenaCounters(t)
	prep := NewPrepared(preparePipe(t, 2))
	digest := func(res *Result, err error) string {
		var d strings.Builder
		scheduleDigest(&d, res, err)
		return d.String()
	}
	made, reused := read()
	res, err := CompilePreparedDelta(nil, prep, testArchs[1], nil)
	want := digest(res, err)
	if m, r := read(); m+r != made+reused+1 {
		t.Errorf("the compile took %d arenas from the idle list and made %d: want one borrowed", r-reused, m-made)
	}
	for _, arch := range testArchs {
		for range 2 { // the second lap is assembled from the ring
			if _, err := CompilePreparedDelta(nil, prep, arch, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := digest(res, nil); got != want {
		t.Errorf("the result changed after its arena was reused:\nbefore:\n%s\nafter:\n%s", want, got)
	}
}

// TestCompileLeavesPreparedUntouched pins the other side of cloning on
// the first spill: on a clustered machine the compile partitions and
// analyses the shared kernel itself, so it must never write through it
// — not an instruction, not a block's CFG lists. Two workers compile one
// Prepared at once on clustered machines, one of which spills; the
// kernel prints the same before and after, and under the race detector
// any write either worker made to it is a report.
func TestCompileLeavesPreparedUntouched(t *testing.T) {
	g := preparePipe(t, 4)
	before := g.String()
	prep := NewPrepared(g)
	var archs []machine.Arch
	for _, a := range append([]machine.Arch{spillingCell}, testArchs...) {
		if a.Clusters > 1 {
			archs = append(archs, a)
		}
	}
	var wg sync.WaitGroup
	spilled := make([]int, 2)
	for w := range spilled {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for _, arch := range archs {
					res, err := CompilePrepared(nil, prep, arch, nil)
					if err != nil {
						t.Errorf("%s: %v", arch, err)
						continue
					}
					spilled[w] += res.Spilled
				}
			}
		}(w)
	}
	wg.Wait()
	if spilled[0] == 0 || spilled[1] == 0 {
		t.Fatal("no cell spilled: the test needs one that rewrites its working copy")
	}
	if after := g.String(); after != before {
		t.Errorf("compiling changed the shared kernel:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// TestValidateForgetsTheLastProgram corrupts a schedule after the valid
// one went through the same arena: an instruction the ops no longer
// name must read as missing, although the arena's index held it a
// moment ago.
func TestValidateForgetsTheLastProgram(t *testing.T) {
	read := arenaCounters(t)
	p := compileValid(t)
	lb := loopBlock(p)
	for i := range lb.Ops {
		if in := lb.Ops[i].Instr; in.Op.HasDest() && !in.Op.IsMem() {
			lb.Ops[i].Instr = in.Clone() // the same operation, of an instruction the block does not hold
			break
		}
	}
	made, _ := read()
	err := Validate(p)
	if err == nil || !strings.Contains(err.Error(), "missing from schedule") {
		t.Errorf("Validate = %v, want the replaced instruction reported missing", err)
	}
	if now, _ := read(); now != made {
		t.Error("Validate did not borrow the arena the valid program went through")
	}
}
