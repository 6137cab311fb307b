//go:build race

package sched

// raceEnabled: the race detector is on. See race_off_test.go.
const raceEnabled = true
