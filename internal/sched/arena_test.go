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

// TestSpilledResultsOutliveTheirArena pins the owning entries' side of
// the round memory. A spilled Result from CompilePrepared, given an
// arena, and one from CompileSpan, which borrows one from the idle list,
// are copied out of the arena when their round fits, so each reads the
// same after 50 later compiles have rebuilt every spill round in that
// very arena: clustered cells, whose rounds build a partitioned clone,
// and a one-cluster cell, whose rounds schedule the working copy itself.
func TestSpilledResultsOutliveTheirArena(t *testing.T) {
	read := arenaCounters(t)
	oneCluster := machine.Arch{ALUs: 1, MULs: 1, Regs: 64, L2Ports: 1, L2Lat: 2, Clusters: 1}
	a1 := prepareA(t, 1)
	prep := NewPrepared(a1)
	digest := func(res *Result, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if res.Spilled == 0 {
			t.Fatal("the cell did not spill: the test needs one that runs spill rounds")
		}
		var d strings.Builder
		scheduleDigest(&d, res, nil)
		return d.String()
	}
	sc := GetScratch()
	defer PutScratch(sc)
	kept := []*Result{}
	var want []string
	for _, arch := range []machine.Arch{starvedCell, oneCluster} {
		res, err := CompilePrepared(nil, prep, arch, sc)
		want = append(want, digest(res, err))
		kept = append(kept, res)
		res, err = CompileSpan(nil, a1, arch)
		want = append(want, digest(res, err))
		kept = append(kept, res)
	}
	made, _ := read()
	cells := []machine.Arch{starvedCell, spillingCell, oneCluster, testArchs[1], testArchs[2]}
	for i := range 50 {
		arch := cells[i%len(cells)]
		if _, err := CompilePrepared(nil, prep, arch, sc); err != nil {
			t.Fatal(err)
		}
		if _, err := CompileSpan(nil, a1, arch); err != nil {
			t.Fatal(err)
		}
	}
	if now, _ := read(); now != made {
		t.Errorf("%d arenas made by the later compiles: CompileSpan's did not come back to it", now-made)
	}
	for i, res := range kept {
		if got := digest(res, nil); got != want[i] {
			t.Errorf("spilled result %d changed after its arena served later compiles:\nbefore:\n%s\nafter:\n%s", i, want[i], got)
		}
	}
}

// TestSpilledCompileLeavesNoPointerIntoKernel compiles spilling cells out
// of one arena through both entries, CompilePreparedDelta leaving its
// Result in the arena, and gives the arena back. The released arena must
// hold no reference at all (idletest.Pinned) and nothing, not even a
// table of ints, in the memory of the kernel, the Prepared around it or
// the Results (idletest.Into): round memory and the working copy are
// wiped through their capacity, and the copied-out Result shares none of
// it.
func TestSpilledCompileLeavesNoPointerIntoKernel(t *testing.T) {
	oneCluster := machine.Arch{ALUs: 1, MULs: 1, Regs: 64, L2Ports: 1, L2Lat: 2, Clusters: 1}
	prep := NewPrepared(prepareA(t, 1))
	sc := GetScratch()
	var results []*Result
	for _, arch := range []machine.Arch{starvedCell, oneCluster} {
		res, err := CompilePrepared(nil, prep, arch, sc)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		if res, err = CompilePreparedDelta(nil, prep, arch, sc); err != nil {
			t.Fatal(err)
		}
		if res.Spilled == 0 {
			t.Fatalf("%s did not spill", arch)
		}
	}
	PutScratch(sc)
	own := reflect.TypeOf(regalloc.Scratch{})
	for _, path := range idletest.Pinned(sc, own) {
		t.Errorf("the released arena still holds %s", path)
	}
	for _, path := range idletest.Into(sc, prep, own) {
		t.Errorf("the released arena: %s", path)
	}
	for _, path := range idletest.Into(sc, results, own) {
		t.Errorf("the released arena, against the owned results: %s", path)
	}
}
