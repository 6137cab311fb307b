// Package dsetest loads the shipped full-space results
// (results_full.json at the module root), the one golden that every
// exploration test compares against and the file EXPERIMENTS.md is
// printed from. A missing file fails the test that asked for it: a
// deleted golden must never read green.
package dsetest

import (
	"path/filepath"
	"runtime"
	"testing"

	"customfit/internal/dse"
)

// GFDHRuns is the logical run count (Table 3's "# runs") of G, F and DH
// over the full space. The shipped Stats count all eleven benchmarks.
const GFDHRuns = 8117

// Shipped loads the shipped results.
func Shipped(tb testing.TB) *dse.Results {
	tb.Helper()
	_, here, _, _ := runtime.Caller(0)
	res, err := dse.Load(filepath.Join(filepath.Dir(here), "..", "..", "..", "results_full.json"))
	if err != nil {
		tb.Fatalf("loading the golden: %v", err)
	}
	return res
}

// GFDH returns the shipped results' G, F and DH rows as an exploration
// of those three benchmarks over the full space reports them (its
// timing fields aside).
func GFDH(tb testing.TB) *dse.Results {
	tb.Helper()
	full := Shipped(tb)
	res := &dse.Results{Archs: full.Archs, Cost: full.Cost, Eval: map[string][]dse.Evaluation{}, Stats: full.Stats}
	for _, b := range []string{"G", "F", "DH"} {
		res.Benches = append(res.Benches, b)
		res.Eval[b] = full.Eval[b]
	}
	res.Stats.Benchmarks, res.Stats.Runs = len(res.Benches), GFDHRuns
	return res
}
