package sched

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/machine"
	"customfit/internal/opt"
)

var updateSchedules = flag.Bool("update", false, "regenerate testdata/schedules.sha256 from the current code")

const schedulesPath = "testdata/schedules.sha256"

// goldenArchs are the machines every cell of the schedule table is
// compiled for: 1 to 8 clusters, 64 to 512 registers (16 to 512 per
// cluster, so the spill loop and the in-order fallback run on several),
// every L2 latency, min/max fusion on two.
var goldenArchs = []machine.Arch{
	machine.Baseline,
	{ALUs: 2, MULs: 1, Regs: 64, L2Ports: 2, L2Lat: 2, Clusters: 1},
	{ALUs: 4, MULs: 2, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 1},
	{ALUs: 16, MULs: 8, Regs: 512, L2Ports: 4, L2Lat: 2, Clusters: 1},
	{ALUs: 2, MULs: 1, Regs: 64, L2Ports: 1, L2Lat: 8, Clusters: 2},
	{ALUs: 4, MULs: 1, Regs: 64, L2Ports: 2, L2Lat: 4, Clusters: 2},
	{ALUs: 8, MULs: 4, Regs: 256, L2Ports: 2, L2Lat: 2, Clusters: 2},
	{ALUs: 4, MULs: 2, Regs: 64, L2Ports: 1, L2Lat: 4, Clusters: 4},
	{ALUs: 8, MULs: 2, Regs: 128, L2Ports: 1, L2Lat: 8, Clusters: 4},
	{ALUs: 16, MULs: 8, Regs: 512, L2Ports: 4, L2Lat: 8, Clusters: 4},
	{ALUs: 16, MULs: 4, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 8},
	{ALUs: 8, MULs: 2, Regs: 128, L2Ports: 2, L2Lat: 4, Clusters: 2, MinMax: true},
	{ALUs: 16, MULs: 4, Regs: 256, L2Ports: 4, L2Lat: 2, Clusters: 8, MinMax: true},
}

// scheduleDigest hashes everything the backend decides about one
// compile: every op's text, cycle, cluster and source cluster in issue
// order, each block's length, forced placements and scheduler peak, the
// register homes and physical assignment, the allocator's peak, the
// blame table, and how many rounds and spills it took. A compile that
// fails contributes its error text.
func scheduleDigest(h *strings.Builder, res *Result, err error) {
	if err != nil {
		fmt.Fprintf(h, "error: %v\n", err)
		return
	}
	p := res.Prog
	for _, sb := range p.Blocks {
		fmt.Fprintf(h, "%s len=%d forced=%d peak=%v\n", sb.IR.Name, sb.Len, sb.Forced, sb.SchedPeak)
		for _, op := range sb.Ops {
			fmt.Fprintf(h, "%d %d %d %s\n", op.Cycle, op.Cluster, op.SrcCluster, op.Instr)
		}
	}
	fmt.Fprintf(h, "phys=%v\nhome=%v\nmaxlive=%v\nblame=%v\niterations=%d spilled=%d\n",
		p.PhysAssign, p.RegCluster, p.MaxLive, p.Blame, res.Iterations, res.Spilled)
}

// TestScheduleGolden pins the backend's output — schedule, placement,
// allocation, blame, spill rounds — of every kernel at every unroll
// factor on goldenArchs to the table recorded from the tree before the
// scheduler's scan loop, the pressure bookkeeping and the coloring loop
// were rewritten: they must keep making the same decisions in the same
// order, which is what lets sched.Fingerprint() stand and cache
// directories stay warm. One Scratch serves the whole table, as one
// serves a worker's compile stream.
//
// Regenerate after an intentional change of the backend's decisions
// (and bump the fingerprint) with:
//
//	go test ./internal/sched/ -run TestScheduleGolden -update
func TestScheduleGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("compiles every kernel at every unroll factor on 13 machines, on one goroutine")
	}
	sc := NewScratch()
	var table strings.Builder
	for _, bm := range bench.All() {
		fn, err := bm.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range []int{1, 2, 4, 8} {
			var cell strings.Builder
			if g, err := opt.Prepare(fn, u); err != nil {
				fmt.Fprintf(&cell, "prepare error: %v\n", err)
			} else {
				prep := NewPrepared(g)
				for _, arch := range goldenArchs {
					fmt.Fprintf(&cell, "%s minmax=%v\n", arch, arch.MinMax)
					res, err := CompilePrepared(nil, prep, arch, sc)
					scheduleDigest(&cell, res, err)
				}
			}
			fmt.Fprintf(&table, "%s %d %x\n", bm.Name, u, sha256.Sum256([]byte(cell.String())))
		}
	}
	got := table.String()
	if *updateSchedules {
		if err := os.WriteFile(schedulesPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", schedulesPath)
		return
	}
	want, err := os.ReadFile(schedulesPath)
	if err != nil {
		t.Fatal(err)
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(g) != len(w) {
		t.Fatalf("%d lines, %s has %d", len(g), schedulesPath, len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("schedules differ from %s:\n got  %s\n want %s", schedulesPath, g[i], w[i])
		}
	}
}
