package dse

import (
	"bufio"
	"context"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/evcache"
	"customfit/internal/machine"
	"customfit/internal/sched"
)

// The variant grid is one on which every ablation variant moves some
// cell: F's branchy loop, A's reduction and its invariants, and the
// 16-registers-per-cluster machine, where the pressure-blind schedule
// spills sooner (EXPERIMENTS.md, "Compiler ablations").
var (
	variantBenches = []*bench.Benchmark{bench.ByName("A"), bench.ByName("F")}
	variantArchs   = []machine.Arch{
		{ALUs: 8, MULs: 4, Regs: 256, L2Ports: 2, L2Lat: 4, Clusters: 2},
		{ALUs: 16, MULs: 4, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 8},
	}
)

const variantWidth = 48

// serialCells evaluates the variant grid one cell after another on a
// fresh evaluator under v that resolves through no cache at all.
func serialCells(v sched.Variant) []Evaluation {
	ev := NewEvaluator()
	ev.Width, ev.Variant, ev.DisableMemo = variantWidth, v, true
	var out []Evaluation
	for _, b := range variantBenches {
		for _, a := range variantArchs {
			out = append(out, ev.measure(context.Background(), b, a, nil))
		}
	}
	return out
}

// cellsOf flattens a run's grid in serialCells' order.
func cellsOf(res *Results) []Evaluation {
	var out []Evaluation
	for _, b := range variantBenches {
		out = append(out, res.Eval[b.Name]...)
	}
	return out
}

// TestVariantsConcurrent explores the grid under the shipped backend and
// each ablation variant at once, each on the parallel explorer: no
// variant may leak into another's compiles, so each must equal its own
// serial run cell for cell, and each ablation must move some cell off
// the shipped backend's.
func TestVariantsConcurrent(t *testing.T) {
	got := make([][]Evaluation, len(ablationConfigs))
	errs := make([]error, len(ablationConfigs))
	var wg sync.WaitGroup
	for i, cfg := range ablationConfigs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := &Explorer{EvalConfig: EvalConfig{Width: variantWidth, Variant: cfg.variant},
				Benchmarks: variantBenches, Archs: variantArchs}
			res, err := x.Measure(context.Background())
			if err == nil {
				got[i] = cellsOf(res)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	var full []Evaluation
	for i, cfg := range ablationConfigs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", cfg.name, errs[i])
		}
		want := serialCells(cfg.variant)
		if !slices.Equal(got[i], want) {
			t.Errorf("%s: run beside the others\n%+v\nalone and serially\n%+v", cfg.name, got[i], want)
		}
		if i == 0 {
			full = want
		} else if slices.Equal(want, full) {
			t.Errorf("%s: every cell as the shipped backend's", cfg.name)
		}
	}
}

// TestVariantCacheIsolation shares one cache between the shipped
// backend and a variant, in both orders: neither may answer from the
// other's sweeps, and the shipped backend writes exactly the keys
// KernelClass addresses.
func TestVariantCacheIsolation(t *testing.T) {
	blind := sched.Variant{NoPressureThrottle: true}
	wantFull, wantBlind := serialCells(sched.Variant{}), serialCells(blind)
	if slices.Equal(wantFull, wantBlind) {
		t.Fatal("the variant moves no cell of the grid: the test cannot tell the keys apart")
	}
	dir := t.TempDir()
	c, err := evcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	explore := func(v sched.Variant) []Evaluation {
		t.Helper()
		x := &Explorer{EvalConfig: EvalConfig{Width: variantWidth, Variant: v, Cache: c},
			Benchmarks: variantBenches, Archs: variantArchs}
		res, err := x.Measure(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		return cellsOf(res)
	}
	shipped := map[string]bool{}
	for _, b := range variantBenches {
		for _, a := range variantArchs {
			shipped[b.Name+" "+CacheKey(KernelClass(b, variantWidth, workloadSeed), a)] = true
		}
	}

	if got := explore(blind); !slices.Equal(got, wantBlind) {
		t.Errorf("variant on an empty cache\n%+v\nwant\n%+v", got, wantBlind)
	}
	blindKeys := cacheKeys(t, dir)
	if len(blindKeys) != len(shipped) {
		t.Errorf("the variant wrote %d keys, the shipped backend's grid has %d", len(blindKeys), len(shipped))
	}
	for k := range blindKeys {
		if shipped[k] {
			t.Errorf("the variant wrote the shipped key %s", k)
		}
	}
	if got := explore(sched.Variant{}); !slices.Equal(got, wantFull) {
		t.Errorf("shipped backend after the variant\n%+v\nwant\n%+v", got, wantFull)
	}
	keys := cacheKeys(t, dir)
	for k := range blindKeys {
		delete(keys, k)
	}
	if !maps.Equal(keys, shipped) {
		t.Errorf("the shipped backend wrote %v, want %v", keys, shipped)
	}
	if got := explore(blind); !slices.Equal(got, wantBlind) {
		t.Errorf("variant after the shipped backend\n%+v\nwant\n%+v", got, wantBlind)
	}
}

// cacheKeys reads the "shard key" pairs a flushed cache directory holds.
func cacheKeys(t *testing.T, dir string) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Scan() // the shard's header
		for sc.Scan() {
			var r evcache.Record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			keys[filepath.Base(p[:len(p)-len(".jsonl")])+" "+r.Key] = true
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}
