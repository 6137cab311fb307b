// Command benchmark is the end-to-end benchmark of the custom-fit
// toolchain: six workloads, the end-to-end metrics a user of the system
// sees, and a per-layer ledger measured from outside by timing calls into
// each package's public functions. See README.md beside this file.
//
//	bash benchmark/run.sh --workload explore_cold --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --runs 10 --out A.json      # every workload, seeds 1..10
//	bash benchmark/run.sh --compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run (default: every workload, one process each)")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", 10, "how long one run measures")
		trace   = flag.String("trace", "0", "0: end-to-end metrics, tracing off; 1: the traced run, per-layer metrics")
		runs    = flag.Int("runs", 1, "runs per workload, on seeds seed, seed+1, ...")
		out     = flag.String("out", "", "write the runs and the environment to this file")
		compare = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare A.json B.json")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if *trace != "0" && *trace != "1" {
		fatal("-trace %s: the traced run and the untraced measurement cannot share a process; run once with 0 and once with 1", *trace)
	}
	if flag.NArg() != 0 {
		fatal("unexpected arguments %v", flag.Args())
	}
	// Never more load than the box has cores, and the same on every box
	// with at least two.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), parallelism))

	tmp, err := workDir()
	if err != nil {
		fatal("%v", err)
	}
	defer os.RemoveAll(tmp)
	if *name == "" || *runs > 1 {
		return runAll(tmp, *name, *seed, *seconds, *trace, *runs, *out)
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	cfg := config{Seed: *seed, Seconds: *seconds, Trace: *trace == "1", Scale: 1, TmpDir: tmp, TraceDir: buildDir, Log: os.Stderr}
	rec, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
		return 2
	}
	rec.print(os.Stderr)
	if *out != "" {
		if err := writeResultFile(*out, []runRecord{*rec}); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 2
		}
	}
	// The last line of standard output is the result.
	line, err := json.Marshal(rec.result())
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if rec.Failed > 0 {
		return 1
	}
	return 0
}

// fatal reports a usage or set-up error; nothing has been created yet
// that would need cleaning up.
func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// buildDir holds everything the benchmark writes: the binary run.sh
// builds, cache directories, traces. It lies in the checkout the command
// was started in.
const buildDir = ".bench_build"

// workDir makes the run's scratch directory.
func workDir() (string, error) {
	base := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run")
}

// runRecord is one run of one workload: what the result line says, and
// the counts and environment that make it comparable.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     int                    `json:"trace"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Passes    int                    `json:"passes"`
	Samples   int                    `json:"samples"` // op latencies behind op_p50_ms
	Evals     int                    `json:"evals"`
	Metrics   map[string]metric      `json:"metrics"`
	Errors    []string               `json:"errors,omitempty"`
	Budget    map[string][]budgetRow `json:"budget,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the contract asks for on the last line.
func (r *runRecord) result() map[string]any {
	return map[string]any{
		"correct":   r.Failed == 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   r.Metrics,
	}
}

func (r *runRecord) print(w *os.File) {
	fmt.Fprintf(w, "%s  seed %d  trace %d  %d passes, %d ops (%d failed), %d evaluations\n",
		r.Workload, r.Seed, r.Trace, r.Passes, r.Attempted, r.Failed, r.Evals)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		note := ""
		if n == "op_p50_ms" {
			note = fmt.Sprintf("  (%d samples)", r.Samples)
		}
		fmt.Fprintf(w, "  %-34s %14.6g %s%s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit, note)
	}
	parents := make([]string, 0, len(r.Budget))
	for p := range r.Budget {
		parents = append(parents, p)
	}
	sort.Strings(parents)
	for _, parent := range parents {
		fmt.Fprintf(w, "  budget of %s (self time, share of the parent):\n", parent)
		for _, row := range r.Budget[parent] {
			fmt.Fprintf(w, "    %-28s %6d calls %12s %6.1f%%\n", row.Name, row.Calls, row.Self.Round(time.Microsecond), 100*row.Share)
		}
	}
}

// runWorkload is one run: set-up, passes until the time is up, the
// end-of-run checks, and in the traced run the layer replay.
func runWorkload(w *workload, cfg config) (*runRecord, error) {
	rec := &runRecord{
		Workload: w.Name, Seed: cfg.Seed, Seconds: cfg.Seconds,
		Metrics: map[string]metric{},
	}
	if cfg.Trace {
		rec.Trace = 1
	}
	// Set-up is everything before the timed section. It is timed here and,
	// in the untraced run, again after the passes, so that its figure rests
	// on several set-ups at both ends of the run.
	var setupS []float64
	setup := func() (instance, error) {
		t0 := time.Now()
		inst, err := w.setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		return inst, nil
	}
	inst, err := setup()
	if err != nil {
		return nil, err
	}
	defer inst.close()

	var tracer *recorder
	if cfg.Trace {
		tracer = &recorder{}
	}
	var costs, tracedCosts []passCost
	var latencies []time.Duration
	start := time.Now()
	for n := 0; ; n++ {
		p := &pass{}
		// The traced run alternates untraced and traced passes: the
		// difference between the two is the tracing overhead.
		traced := cfg.Trace && n%2 == 1
		if traced {
			p.rec = tracer
			p.root = tracer.start(nil, w.Name+".pass", -1)
		}
		cost, err := measure(inst, p)
		p.root.end()
		if err != nil {
			return nil, err
		}
		if traced {
			tracedCosts = append(tracedCosts, cost)
		} else {
			costs = append(costs, cost)
		}
		latencies = append(latencies, p.latencies...)
		rec.absorb(p)
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "  pass %d (traced %v): %d ops in %v, %.4g evals/s, %.4g CPU-ms/eval, op p50 %.4g ms\n",
				n, traced, p.attempted, cost.Wall.Round(time.Millisecond), cost.EvalsPerS, cost.CPUMsPerEval, cost.OpP50Ms)
		}
		// Whole passes only; stop at the pass boundary nearest the time
		// asked for, after at least one pass (one pair when traced).
		elapsed := time.Since(start)
		perPass := elapsed / time.Duration(n+1)
		if (!cfg.Trace || traced) && (elapsed+perPass/2).Seconds() >= cfg.Seconds {
			break
		}
	}
	rec.Passes = len(costs) + len(tracedCosts)
	rec.Samples = len(latencies)
	fin := &pass{}
	fit, cycles := inst.finish(fin)
	rec.absorb(fin)

	if !cfg.Trace {
		// Set up again, at least three times in all, and while all the
		// set-ups together took under three seconds up to seven times: a
		// set-up of a third of a second needs more samples than one of two
		// seconds, and can afford them.
		spent := setupS[0]
		for len(setupS) < cfg.scaled(3, 1) || (spent < 3/float64(cfg.Scale) && len(setupS) < cfg.scaled(7, 1)) {
			again, err := setup()
			if err != nil {
				return nil, err
			}
			again.close()
			spent += setupS[len(setupS)-1]
		}
		// The timed costs, set-up among them, are steady figures (the fast
		// end of the run, see steady); memory does not wait for a
		// neighbour, so its figures are medians over the passes.
		values := func(f func(passCost) float64) []float64 {
			v := make([]float64, len(costs))
			for i, c := range costs {
				v[i] = f(c)
			}
			return v
		}
		rec.set("setup_s", steady(setupS), "s")
		rec.set("evals_per_s", 1/steady(values(func(c passCost) float64 { return 1 / c.EvalsPerS })), "1/s")
		rec.set("op_p50_ms", steady(values(func(c passCost) float64 { return c.OpP50Ms })), "ms")
		rec.set("cpu_ms_per_eval", steady(values(func(c passCost) float64 { return c.CPUMsPerEval })), "ms")
		rec.set("allocs_per_eval", median(values(func(c passCost) float64 { return c.AllocsPerEval })), "count")
		rec.set("alloc_kb_per_eval", median(values(func(c passCost) float64 { return c.AllocKBPerEval })), "KiB")
		rec.set("fit_speedup_geomean", fit, "x")
		rec.set("sim_cycles_geomean", cycles, "cycles")
		peak := median(values(func(c passCost) float64 { return c.PeakRSSMiB }))
		if math.IsNaN(peak) {
			peak = peakRSSMiB()
		}
		rec.set("peak_rss_mb", peak, "MiB")
		return rec, nil
	}

	// The traced run: harness diagnostics, then the layer replay.
	// Each traced pass against the untraced pass just before it, so the
	// machine's slow drift cancels; the median over the pairs.
	var overhead []float64
	for i, c := range tracedCosts {
		overhead = append(overhead, c.Wall.Seconds()/costs[i].Wall.Seconds()-1)
	}
	opMs := durationsMs(latencies)
	tail := tailPercentile(len(opMs))
	rec.set("loadgen.op_tail_ms", percentile(opMs, tail), "ms")
	rec.set("loadgen.op_tail_pct", tail, "%")
	rec.set("loadgen.op_max_ms", percentile(opMs, 100), "ms")
	rec.set("loadgen.samples", float64(len(opMs)), "count")
	rec.set("loadgen.trace_overhead_share", median(overhead), "ratio")
	// The same answers with tracing on: the quality metrics ride along
	// so the two modes can be compared.
	rec.set("loadgen.fit_speedup_geomean", fit, "x")
	rec.set("loadgen.sim_cycles_geomean", cycles, "cycles")
	rec.Budget = map[string][]budgetRow{}
	if err := replay(rec, tracer, inst.replayInputs(), cfg); err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	if err := tracer.writeChromeTrace(filepath.Join(cfg.TraceDir, "trace_"+w.Name+".json")); err != nil {
		return nil, err
	}
	return rec, nil
}

func (r *runRecord) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// absorb adds a pass's op counts and failures to the run.
func (r *runRecord) absorb(p *pass) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	r.Evals += p.evals
	for _, e := range p.errs {
		if len(r.Errors) < 8 {
			r.Errors = append(r.Errors, e)
		}
	}
}

// environment is recorded beside the numbers of every result file.
type environment struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	CPU         string `json:"cpu"`
	Fingerprint string `json:"backend_fingerprint"`
	Commit      string `json:"git_commit"`
	Generated   string `json:"generated"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checkout's HEAD without starting git; a checkout
// that is not a repository has none.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		data, err := os.ReadFile(filepath.Join(".git", name))
		if err != nil {
			return ref
		}
		return strings.TrimSpace(string(data))
	}
	return ref
}
