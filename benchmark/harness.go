package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// A workload is one set of inputs. setup builds a fresh instance from the
// seed; an instance runs passes: fixed, identical batches of ops.
type workload struct {
	Name  string
	Why   string
	setup func(cfg config) (instance, error)
}

type instance interface {
	// pass runs one batch of ops through p.op and keeps what it needs
	// to check them.
	pass(p *pass) error
	// check verifies the outputs of the last pass, outside the timed
	// section, reporting every wrong output through p.fail.
	check(p *pass)
	// finish runs the end-of-run checks and returns the quality of the
	// answers delivered: (fit_speedup_geomean, sim_cycles_geomean).
	finish(p *pass) (fit, cycles float64)
	// replayInputs are the kernels and machines the layer replay
	// samples from.
	replayInputs() replayInputs
	close()
}

// config is what one run is asked to do.
type config struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// Scale is 1 in every run of the command. The smoke test sets 20 and
	// gets the same workloads, one rule applied to every size: a twentieth
	// of the machines, ops per pass, set-ups, rechecked cells and replay
	// time, through scaled.
	Scale int
	// TmpDir is where cache directories go and TraceDir where the traced
	// run writes its Chrome trace; both lie inside the checkout.
	TmpDir   string
	TraceDir string
	// Log receives one line per pass; nil discards them.
	Log io.Writer
}

// scaled returns n/Scale, at least floor.
func (c config) scaled(n, floor int) int { return max(n/c.Scale, floor) }

// pass collects the ops of one batch. Methods are safe for concurrent
// use: the end-of-run checks report failures from two goroutines.
type pass struct {
	rec  *recorder
	root *spanRef

	mu        sync.Mutex
	latencies []time.Duration
	evals     int
	attempted int
	failed    int
	errs      []string
	nextOp    int
}

// op times one operation. f returns the evaluations it delivered; an
// error fails the op.
func (p *pass) op(name string, f func(sp *spanRef) (evals int, err error)) {
	p.mu.Lock()
	id := p.nextOp
	p.nextOp++
	p.mu.Unlock()
	sp := p.rec.start(p.root, name, id)
	t0 := time.Now()
	evals, err := f(sp)
	d := time.Since(t0)
	sp.end()
	p.mu.Lock()
	p.latencies = append(p.latencies, d)
	p.evals += evals
	p.attempted++
	p.mu.Unlock()
	if err != nil {
		p.fail("%s: %v", name, err)
	}
}

// fail counts one failed op: an error, a refusal or a wrong output.
func (p *pass) fail(format string, args ...any) {
	p.mu.Lock()
	p.failed++
	if len(p.errs) < 8 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
	p.mu.Unlock()
}

// usage is a point-in-time reading of the process's cost counters.
type usage struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

// cpuTime is the process's user and system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:    time.Now(),
		cpu:     cpuTime(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
}

// passCost is what one pass cost, per evaluation where it says so.
type passCost struct {
	Wall           time.Duration
	Evals          int
	EvalsPerS      float64
	OpP50Ms        float64 // median latency of the pass's ops
	CPUMsPerEval   float64
	AllocsPerEval  float64
	AllocKBPerEval float64
	PeakRSSMiB     float64 // NaN when the peak could not be reset before the pass
}

// measure runs one pass of inst between two usage readings, then checks
// its outputs outside the timed section. The heap is collected first so
// every pass starts from the same state.
func measure(inst instance, p *pass) (passCost, error) {
	runtime.GC()
	peakReset := resetPeakRSS()
	before := readUsage()
	err := inst.pass(p)
	after := readUsage()
	peak := math.NaN()
	if peakReset {
		peak = peakRSSMiB()
	}
	if err != nil {
		return passCost{}, err
	}
	inst.check(p)
	wall := after.wall.Sub(before.wall)
	n := float64(p.evals)
	if n == 0 {
		return passCost{}, fmt.Errorf("pass delivered no evaluations")
	}
	return passCost{
		Wall:           wall,
		Evals:          p.evals,
		EvalsPerS:      n / wall.Seconds(),
		OpP50Ms:        median(durationsMs(p.latencies)),
		CPUMsPerEval:   float64(after.cpu-before.cpu) / float64(time.Millisecond) / n,
		AllocsPerEval:  float64(after.mallocs-before.mallocs) / n,
		AllocKBPerEval: float64(after.bytes-before.bytes) / 1024 / n,
		PeakRSSMiB:     peak,
	}, nil
}

// resetPeakRSS restarts the kernel's record of the process's peak resident
// set (writing 5 to clear_refs resets VmHWM), so that every pass reports
// its own peak and a run the median of them: one maximum over a whole run
// moves by a fifth with the collector's timing. Where /proc refuses the
// write, the run reports the one peak it has.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMiB reads VmHWM, the process's peak resident set.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// steady is the figure a run reports for a timed cost (lower is better):
// the mean of the fastest quarter of its samples, at least two of them.
// On a shared host a neighbour only ever adds time, for seconds or for
// minutes, so the fast end of a run repeats from run to run where its
// median follows the neighbour.
func steady(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := min(max(len(s)/4, 2), len(s))
	sum := 0.0
	for _, x := range s[:k] {
		sum += x
	}
	return sum / float64(k)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailPercentile is the highest percentile of n samples that still has
// at least ten samples beyond it; below twenty samples that is the
// median.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{75, 90, 95, 99, 99.9} {
		if n-rank(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// rank is the nearest-rank position of the p-th percentile among n
// sorted samples, counted from 1.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9)) // 99.9% of 10000 is 9990, not 9990.000000000001
	return min(max(r, 1), n)
}

// percentile returns the p-th percentile (nearest rank) of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	// Summed in sorted order, so the result does not depend on the
	// seeded order the values were produced in.
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	sum := 0.0
	for _, x := range s {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(s)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
