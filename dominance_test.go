package customfit_test

import (
	"fmt"
	"math"
	"testing"

	"customfit/internal/dse"
	"customfit/internal/dse/dsetest"
	"customfit/internal/machine"
)

// dominates reports whether machine a is at least as rich as b on every
// axis and differs from it: the same cluster count, no fewer ALUs, MULs,
// registers or L2 ports, and no longer an L2 latency.
func dominates(a, b machine.Arch) bool {
	return a != b && a.Clusters == b.Clusters &&
		a.ALUs >= b.ALUs && a.MULs >= b.MULs && a.Regs >= b.Regs &&
		a.L2Ports >= b.L2Ports && a.L2Lat <= b.L2Lat
}

// step names the one axis on which a, which dominates b, is a single
// step richer than b — twice the ALUs, MULs, registers or L2 ports, or
// half the L2 latency, everything else equal — or "" when a is not one
// step from b.
func step(a, b machine.Arch) string {
	axis := ""
	for _, x := range []struct {
		name       string
		more, less int
	}{
		{"a", a.ALUs, b.ALUs}, {"m", a.MULs, b.MULs}, {"r", a.Regs, b.Regs},
		{"p2", a.L2Ports, b.L2Ports}, {"l2", b.L2Lat, a.L2Lat},
	} {
		switch {
		case x.more == x.less:
		case x.more == 2*x.less && axis == "":
			axis = x.name
		default:
			return ""
		}
	}
	return axis
}

// TestRicherMachinesLose pins the audit of the shipped design space
// along its dominance order (ROADMAP item 1): how often a machine that
// is at least as rich as another on every axis takes more cycles on the
// same benchmark. Failed cells are left out. A backend change that
// moves these counts moves them on purpose, and says so.
func TestRicherMachinesLose(t *testing.T) {
	res := dsetest.Shipped(t)
	var pairs, slower, slower10 int
	var edges, edgeSlower, edgeSlower10, edgeSpillMore int
	var regEdges, regSlower, regSlower10 int
	type cell struct {
		bench string
		arch  int
	}
	richer := map[cell]bool{} // the richer side of a pair >10% slower
	worst, worstBench, worstRich, worstPoor := 0.0, "", -1, -1
	for _, name := range res.Benches {
		evs := res.Eval[name]
		for i, rich := range evs {
			if rich.Failed {
				continue
			}
			for j, poor := range evs {
				if poor.Failed || !dominates(res.Archs[i], res.Archs[j]) {
					continue
				}
				pairs++
				over := rich.Cycles > poor.Cycles
				over10 := 10*rich.Cycles > 11*poor.Cycles
				if over {
					slower++
				}
				if over10 {
					slower10++
					richer[cell{name, i}] = true
				}
				if r := float64(rich.Cycles) / float64(poor.Cycles); r > worst {
					worst, worstBench, worstRich, worstPoor = r, name, i, j
				}
				axis := step(res.Archs[i], res.Archs[j])
				if axis == "" {
					continue
				}
				edges++
				if over {
					edgeSlower++
				}
				if over10 {
					edgeSlower10++
					if rich.Spilled > poor.Spilled {
						edgeSpillMore++
					}
				}
				if axis == "r" {
					regEdges++
					if over {
						regSlower++
					}
					if over10 {
						regSlower10++
					}
				}
			}
		}
	}
	for _, c := range []struct {
		what      string
		got, want int
	}{
		{"dominance pairs", pairs, 296703},
		{"pairs where the richer machine is slower", slower, 3336},
		{"pairs where it is more than 10% slower", slower10, 1207},
		{"richer-side cells of those", len(richer), 380},
		{"single-step edges", edges, 23928},
		{"edges where the richer machine is slower", edgeSlower, 949},
		{"edges where it is more than 10% slower", edgeSlower10, 338},
		{"of those, edges where the richer machine spills more", edgeSpillMore, 186},
		{"register-only edges", regEdges, 6037},
		{"register-only edges where the richer machine is slower", regSlower, 146},
		{"register-only edges where it is more than 10% slower", regSlower10, 50},
	} {
		if c.got != c.want {
			t.Errorf("%s: %d, want %d", c.what, c.got, c.want)
		}
	}

	rich, poor := res.Eval[worstBench][worstRich], res.Eval[worstBench][worstPoor]
	got := fmt.Sprintf("x%.2f: %s on %v takes %d cycles (unroll %d, %d spilled) against %d (%d spilled) on %v",
		worst, worstBench, rich.Arch, rich.Cycles, rich.Unroll, rich.Spilled, poor.Cycles, poor.Spilled, poor.Arch)
	want := "x2.86: GF on (8 2 64 4 4 1) takes 16239 cycles (unroll 1, 18 spilled) against 5671 (0 spilled) on (8 2 64 4 8 1)"
	if got != want {
		t.Errorf("worst pair:\n got %s\nwant %s", got, want)
	}
}

// TestEnvelopeClaims reads the report's headline claims on the monotone
// envelope of the shipped results: every non-failed cell takes the
// fewest cycles of any non-failed cell its machine dominates on the
// same benchmark — the speed a compiler reaches by compiling for the
// poorer machine instead. The envelope is priced and judged by the one
// report path (Results.Price, ComputeClaims); only the cycles change.
func TestEnvelopeClaims(t *testing.T) {
	shipped := dsetest.Shipped(t).ComputeClaims()
	res := dsetest.Shipped(t)
	for _, name := range res.Benches {
		evs := res.Eval[name]
		env := make([]int64, len(evs))
		for i, ev := range evs {
			env[i] = ev.Cycles
			for j, poor := range evs {
				if !ev.Failed && !poor.Failed && poor.Cycles < env[i] && dominates(res.Archs[i], res.Archs[j]) {
					env[i] = poor.Cycles
				}
			}
		}
		for i := range evs {
			evs[i].Cycles = env[i]
		}
	}
	if err := res.Price(nil); err != nil {
		t.Fatal(err)
	}
	envelope := res.ComputeClaims()

	moved := map[string][2]string{"GF": {"5.6", "3.6"}, "GEF": {"4.6", "3.4"}, "DHEF": {"14.1", "11.1"}}
	over5 := [2]int{}
	for _, b := range dse.DisplayBenches {
		was, is := shipped.SpreadByBench[b], envelope.SpreadByBench[b]
		if want, ok := moved[b]; ok {
			if got := [2]string{fmt.Sprintf("%.1f", was), fmt.Sprintf("%.1f", is)}; got != want {
				t.Errorf("claim 1, %s: spread %s -> %s, want %s -> %s", b, got[0], got[1], want[0], want[1])
			}
		} else if math.Abs(is-was) > 0.4 {
			t.Errorf("claim 1, %s: spread %.2f -> %.2f, want a move of at most 0.4", b, was, is)
		}
		if was >= 5 {
			over5[0]++
		}
		if is >= 5 {
			over5[1]++
		}
	}
	if over5 != [2]int{8, 7} {
		t.Errorf("claim 1: %d -> %d benchmarks show a >=5x spread, want 8 -> 7", over5[0], over5[1])
	}
	for _, c := range []*dse.Claims{shipped, envelope} {
		if got := fmt.Sprintf("%s on %s's machine, %.0f%%", c.WorstCrossTarget, c.WorstCrossDonor, 100*c.WorstCrossFraction); got != "A on GEF's machine, 30%" {
			t.Errorf("claim 2: %s, want A on GEF's machine, 30%%", got)
		}
	}
	if got := fmt.Sprintf("%.3f -> %.3f", shipped.BackoffRecovery, envelope.BackoffRecovery); got != "1.177 -> 1.165" {
		t.Errorf("claim 3: back-off recovery %s, want 1.177 -> 1.165", got)
	}
}
