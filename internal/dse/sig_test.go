package dse

import (
	"fmt"
	"reflect"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/machine"
)

// TestSignatureClassesCompileIdentically is the property behind the
// memoization: with the memo disabled, every architecture in the full
// space must produce exactly the same backend sweep as its signature
// class representative — same chosen unroll, static cycles, spill count
// and failure status — and the same cycle-time derate, so the memoized
// Evaluation (including Time) is exact, not approximate.
func TestSignatureClassesCompileIdentically(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the full 762-arch space")
	}
	if raceEnabled {
		t.Skip("full-space compilation is minutes-slow under the race detector")
	}
	ev := NewEvaluator()
	ev.Width = 48
	ev.DisableMemo = true
	b := bench.ByName("G")
	reps := map[archSig]Evaluation{}
	repArch := map[archSig]machine.Arch{}
	dupes := 0
	for _, a := range machine.FullSpace() {
		sig := sigOf(a)
		got := ev.Evaluate(b, a)
		rep, ok := reps[sig]
		if !ok {
			reps[sig] = got
			repArch[sig] = a
			continue
		}
		dupes++
		if got.Unroll != rep.Unroll || got.Cycles != rep.Cycles ||
			got.Spilled != rep.Spilled || got.Failed != rep.Failed {
			t.Errorf("%v compiles differently from its class representative %v: (u=%d cyc=%d spill=%d fail=%v) vs (u=%d cyc=%d spill=%d fail=%v)",
				a, repArch[sig], got.Unroll, got.Cycles, got.Spilled, got.Failed,
				rep.Unroll, rep.Cycles, rep.Spilled, rep.Failed)
		}
		if d1, d2 := machine.DefaultCycleModel.Derate(a), machine.DefaultCycleModel.Derate(repArch[sig]); d1 != d2 {
			t.Errorf("%v derate %.15g differs from representative %v derate %.15g",
				a, d1, repArch[sig], d2)
		}
	}
	if dupes == 0 {
		t.Fatal("full space has no signature-isomorphic arrangements; the memo is untestable")
	}
	t.Logf("%d signature classes cover %d architectures (%d memoizable)",
		len(reps), len(machine.FullSpace()), dupes)
}

// TestMemoMatchesDirectCompile checks the memo end to end on a known
// signature-isomorphic pair: 2 MULs vs 4 MULs across 4 clusters both
// floor to MULsPC=1, so the backend cannot tell them apart. The
// memoized evaluator must return exactly what a memo-less evaluator
// computes for each, and must count the hit's logical runs.
func TestMemoMatchesDirectCompile(t *testing.T) {
	a1 := machine.Arch{ALUs: 8, MULs: 2, Regs: 256, L2Ports: 1, L2Lat: 4, Clusters: 4}
	a2 := machine.Arch{ALUs: 8, MULs: 4, Regs: 256, L2Ports: 1, L2Lat: 4, Clusters: 4}
	if sigOf(a1) != sigOf(a2) {
		t.Fatalf("test premise broken: %v and %v have different signatures", a1, a2)
	}
	b := bench.ByName("G")

	memod := NewEvaluator()
	memod.Width = 48
	direct := NewEvaluator()
	direct.Width = 48
	direct.DisableMemo = true

	m1 := memod.Evaluate(b, a1)
	runsAfterMiss := memod.Compilations.Load()
	m2 := memod.Evaluate(b, a2)
	runsAfterHit := memod.Compilations.Load()
	d1 := direct.Evaluate(b, a1)
	d2 := direct.Evaluate(b, a2)

	if m1 != d1 {
		t.Errorf("memoized %v = %+v, direct = %+v", a1, m1, d1)
	}
	if m2 != d2 {
		t.Errorf("memoized %v = %+v, direct = %+v", a2, m2, d2)
	}
	// Same class, so even the raw cycles agree across the pair.
	if m1.Cycles != m2.Cycles || m1.Unroll != m2.Unroll || m1.Spilled != m2.Spilled {
		t.Errorf("isomorphic pair disagrees: %+v vs %+v", m1, m2)
	}
	// The hit must re-count the cached sweep's runs (logical Table 3
	// accounting), doubling the counter rather than leaving it flat.
	if runsAfterHit != 2*runsAfterMiss {
		t.Errorf("Compilations after hit = %d, want %d (logical re-count of the %d-run sweep)",
			runsAfterHit, 2*runsAfterMiss, runsAfterMiss)
	}
}

// TestSigKeyMatchesSprintf holds the strconv-spelled signature key to
// the fmt rendering it replaced, which every cache directory and every
// peer in a fleet addresses entries by: over the full space, plain, with
// MinMax, and crossed with a two-op catalog (every mask), SigKey and
// CacheKey must give the old bytes.
func TestSigKeyMatchesSprintf(t *testing.T) {
	sprintfKey := func(s archSig) string {
		k := fmt.Sprintf("c%d.a%d.m%d.r%d.p%d.l%d",
			s.Clusters, s.ALUsPC, s.MULsPC, s.RegsPC, s.L2Ports, s.L2Lat)
		if s.MinMax {
			k += ".mm"
		}
		if s.OpsKey != "" {
			k += ".ops{" + s.OpsKey + "}"
		}
		return k
	}
	set, err := machine.ParseOpCatalog([]string{
		"mac/3/2:mul $0 $1;add %0 $2",
		"add_add/3/1:add $0 $1;add %0 $2",
	})
	if err != nil {
		t.Fatal(err)
	}
	full := machine.FullSpace()
	archs := append([]machine.Arch(nil), full...)
	for _, a := range full {
		a.MinMax = true
		archs = append(archs, a)
	}
	archs = append(archs, machine.CrossOps(full, set, []uint64{1, 2, 3})...)
	const class = "0123456789abcdef01234567"
	withOps := 0
	for _, a := range archs {
		want := sprintfKey(sigOf(a))
		if got := SigKey(a); got != want {
			t.Fatalf("SigKey(%v) = %q, want %q", a, got, want)
		}
		if got := CacheKey(class, a); got != class+":"+want {
			t.Fatalf("CacheKey(%v) = %q, want %q", a, got, class+":"+want)
		}
		if !a.Ops.Empty() {
			withOps++
		}
	}
	if withOps != 3*len(full) {
		t.Fatalf("%d op-enabled architectures, want %d", withOps, 3*len(full))
	}
}

// TestSignatureFixesCapacity checks archSig's field list against the
// machine description instead of trusting it: over the full space,
// plain, with MinMax and crossed with a two-op catalog, machines of one
// signature class hold the same in a cycle (machine.Capacity: each
// cluster's slots, the machine's, the port pools and their holds), so
// a run's profile is its class's. And every machine holds at least one
// of whatever each class it can issue takes: every class but none, a
// move only when clustered, a fused op only with custom ops.
func TestSignatureFixesCapacity(t *testing.T) {
	set, err := machine.ParseOpCatalog([]string{
		"mac/3/2:mul $0 $1;add %0 $2",
		"add_add/3/1:add $0 $1;add %0 $2",
	})
	if err != nil {
		t.Fatal(err)
	}
	full := machine.FullSpace()
	archs := append([]machine.Arch(nil), full...)
	for _, a := range full {
		archs = append(archs, a.WithMinMax())
	}
	archs = append(archs, machine.CrossOps(full, set, []uint64{1, 2, 3})...)
	reps := map[string]machine.Arch{}
	for _, a := range archs {
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		k := a.Capacity()
		key := SigKey(a)
		if rep, ok := reps[key]; !ok {
			reps[key] = a
		} else if rk := rep.Capacity(); rk != k {
			t.Errorf("%v and %v share signature %s but not capacity: %+v vs %+v", a, rep, key, k, rk)
		}
		for c := machine.ClassNone + 1; c < machine.NumClasses; c++ {
			issues := !(c == machine.ClassXMov && a.Clusters == 1) && !(c == machine.ClassCU && a.Ops.Empty())
			holds := true
			for r, n := range c.Charges() {
				if n > 0 && (k.Cluster[r] < 1 || k.Machine[r] < 1 || k.Hold[r] < 1) {
					holds = false
				}
			}
			if holds != issues {
				t.Errorf("%v: capacity %+v holds class %s: %v, want %v", a, k, c, holds, issues)
			}
		}
	}
	if len(reps) >= len(archs) {
		t.Fatalf("%d classes over %d machines: no class has two members to compare", len(reps), len(archs))
	}
}

// TestSignatureClassesGroupBySigKey: SignatureClasses groups a grid as
// grouping it by the string SigKey does — the same classes, in
// first-seen order, members in grid order — on the full space and on
// the full space crossed with a two-op catalog the way an explore with
// ops crosses it (machine.Grid: op-free and all ops on each machine).
func TestSignatureClassesGroupBySigKey(t *testing.T) {
	set, err := machine.ParseOpCatalog([]string{
		"mac/3/2:mul $0 $1;add %0 $2",
		"add_add/3/1:add $0 $1;add %0 $2",
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, grid := range map[string][]machine.Arch{
		"full space": machine.FullSpace(),
		"op-crossed": machine.Grid(nil, 1, set),
	} {
		var want [][]int
		at := map[string]int{}
		for i, a := range grid {
			k := SigKey(a)
			ci, ok := at[k]
			if !ok {
				ci = len(want)
				at[k] = ci
				want = append(want, nil)
			}
			want[ci] = append(want[ci], i)
		}
		got := SignatureClasses(grid)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d classes, grouping by SigKey gives %d", name, len(got), len(want))
		}
		if len(want) >= len(grid) {
			t.Errorf("%s: %d classes of %d machines group nothing", name, len(want), len(grid))
		}
	}
}

// TestSignatureClassesAllocs: grouping the full space makes four
// objects, whatever the number of machines, and so does grouping it
// crossed with a two-op catalog (the ops keys are compared as bytes,
// never made into strings); and the classes share one array without one
// reaching into the next.
func TestSignatureClassesAllocs(t *testing.T) {
	set, err := machine.ParseOpCatalog([]string{
		"mac/3/2:mul $0 $1;add %0 $2",
		"add_add/3/1:add $0 $1;add %0 $2",
	})
	if err != nil {
		t.Fatal(err)
	}
	grid := machine.FullSpace()
	for name, g := range map[string][]machine.Arch{"full space": grid, "op-crossed": machine.Grid(nil, 1, set)} {
		if n := testing.AllocsPerRun(20, func() { SignatureClasses(g) }); n > 4 {
			t.Errorf("%s: SignatureClasses of %d machines makes %v objects, want at most 4", name, len(g), n)
		}
	}
	classes := SignatureClasses(grid)
	grown := append(classes[0], -1)
	if classes[1][0] == -1 || &grown[0] == &classes[0][0] {
		t.Errorf("appending to class 0 wrote into class 1: %v", classes[1])
	}
}
