package sched

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"customfit/internal/cc"
	"customfit/internal/machine"
	"customfit/internal/opt"
)

// TestCompilePreparedConcurrentSharing drives the explorer's sharing
// contract: Prepared kernels shared by many goroutines, each with a
// Scratch arena to itself — its own from the pool for the even cells,
// one borrowed for the call (a nil Scratch) for the odd ones — across
// architectures of several partition classes (single-cluster,
// clustered, spilling). Every concurrent compile must reproduce the
// serial Result exactly, and still read the same once every arena has
// gone back to the pool and been compiled with again: a Result owns
// its memory. `make race` runs this under the race detector to vet the
// class and skeleton singleflights, and — through the last cell, a
// clustered machine that needs three spill rounds at unroll 4 — workers
// reading a class's owned skeletons and its shared src while each
// copies src and builds the later rounds' skeletons into its own
// Scratch.
func TestCompilePreparedConcurrentSharing(t *testing.T) {
	fn, err := cc.CompileKernel(pipeSrc)
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		unroll int
		arch   machine.Arch
	}
	var cells []cell
	for _, arch := range testArchs {
		cells = append(cells, cell{2, arch})
	}
	spilling := cell{4, machine.Arch{ALUs: 8, MULs: 2, Regs: 32, L2Ports: 1, L2Lat: 4, Clusters: 4}}
	cells = append(cells, cell{4, machine.Baseline}, spilling)

	type shape struct {
		spilled, iters, bundles, ops int
		digest                       string
	}
	shapeOf := func(res *Result) shape {
		var d strings.Builder
		scheduleDigest(&d, res, nil)
		return shape{res.Spilled, res.Iterations, res.Prog.BundleCount(), res.Prog.OpCount(), d.String()}
	}
	ref := map[cell]shape{}
	preps := map[int]*Prepared{}
	for _, c := range cells {
		if preps[c.unroll] == nil {
			g, err := opt.Prepare(fn, c.unroll)
			if err != nil {
				t.Fatal(err)
			}
			preps[c.unroll] = NewPrepared(g)
		}
		res, err := Compile(preps[c.unroll].F, c.arch)
		if err != nil {
			t.Fatalf("serial Compile u=%d %s: %v", c.unroll, c.arch, err)
		}
		ref[c] = shapeOf(res)
	}
	if got := ref[spilling].iters; got < 4 {
		t.Fatalf("u=%d %s took %d rounds; the test needs a cell with at least 3 spill rounds", spilling.unroll, spilling.arch, got)
	}

	const workers = 8
	errs := make(chan error, workers*len(cells))
	kept := make([][]*Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := GetScratch()
			defer PutScratch(own)
			kept[w] = make([]*Result, len(cells))
			for ci, c := range cells {
				sc := own
				if ci%2 == 1 {
					sc = nil
				}
				res, err := CompilePrepared(nil, preps[c.unroll], c.arch, sc)
				if err != nil {
					errs <- fmt.Errorf("concurrent compile u=%d %s: %v", c.unroll, c.arch, err)
					continue
				}
				if got := shapeOf(res); got != ref[c] {
					errs <- fmt.Errorf("u=%d %s: concurrent result differs from the serial one (%d/%d spilled, %d/%d rounds)",
						c.unroll, c.arch, got.spilled, ref[c].spilled, got.iters, ref[c].iters)
				}
				kept[w][ci] = res
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for w := range kept {
		for ci, res := range kept[w] {
			if res != nil && shapeOf(res) != ref[cells[ci]] {
				t.Errorf("u=%d %s: worker %d's result changed after its arena was reused", cells[ci].unroll, cells[ci].arch, w)
			}
		}
	}
}
