//go:build !race

package sched

// raceEnabled reports whether the race detector is instrumenting this
// test binary (see race_on_test.go). The single-goroutine sweeps — the
// schedule table, the generated kernels against the reference — skip or
// shrink under the detector: instrumentation makes them minutes-slow
// without exercising any concurrency.
const raceEnabled = false
