package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"customfit/internal/sched"
)

// resultFile is what -out writes: the runs, and beside them the
// environment they were measured in.
type resultFile struct {
	Environment environment `json:"environment"`
	Runs        []runRecord `json:"runs"`
}

func writeResultFile(path string, runs []runRecord) error {
	data, err := json.MarshalIndent(resultFile{
		Environment: environment{
			NProc:       runtime.NumCPU(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			GoVersion:   runtime.Version(),
			CPU:         cpuModel(),
			Fingerprint: sched.Fingerprint(),
			Commit:      gitCommit(),
			Generated:   time.Now().UTC().Format(time.RFC3339),
		},
		Runs: runs,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// runAll runs the named workload (every workload when name is empty)
// `runs` times on consecutive seeds, one process per run so peak memory
// does not mix, and prints the medians and spreads.
func runAll(tmp, name string, seed int64, seconds float64, trace string, runs int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	var records []runRecord
	status := 0
	for _, w := range workloads {
		if name != "" && w.Name != name {
			continue
		}
		for r := 0; r < runs; r++ {
			// A file per child: one that dies before writing its record
			// leaves nothing an earlier child's could be mistaken for.
			file := filepath.Join(tmp, fmt.Sprintf("%s_%d.json", w.Name, r))
			cmd := exec.Command(self,
				"-workload", w.Name, "-seed", strconv.FormatInt(seed+int64(r), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace", trace, "-out", file)
			cmd.Stderr = os.Stderr
			// Run waits for the child to end; a failed check makes it
			// exit 1 after writing its record.
			if err := cmd.Run(); err != nil {
				status = 1
			}
			f, err := readResultFile(file)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", w.Name, seed+int64(r), err)
				status = 1
				continue
			}
			records = append(records, f.Runs...)
		}
	}
	summarize(os.Stdout, records)
	if out != "" {
		if err := writeResultFile(out, records); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 2
		}
	}
	return status
}

// series is every run's value of one metric on one workload.
type series map[string]map[string][]float64 // workload -> metric -> values

func collect(runs []runRecord, trace int) (series, map[string]string) {
	s := series{}
	units := map[string]string{}
	for _, r := range runs {
		if r.Trace != trace {
			continue
		}
		if s[r.Workload] == nil {
			s[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			s[r.Workload][name] = append(s[r.Workload][name], m.Value)
			units[name] = m.Unit
		}
	}
	return s, units
}

// spread is the distance between the first and third quartile as a share
// of the median — the driver's steadiness measure. It needs two values.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / median(v))
}

// quartiles follows Python's statistics.quantiles(v, n=4), the
// exclusive method.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func summarize(w io.Writer, runs []runRecord) {
	for trace := 0; trace <= 1; trace++ {
		s, units := collect(runs, trace)
		for _, wl := range sortedKeys(s) {
			fmt.Fprintf(w, "%s (trace %d)\n", wl, trace)
			for _, name := range sortedKeys(s[wl]) {
				v := s[wl][name]
				fmt.Fprintf(w, "  %-34s %14.6g %-7s n=%d spread %.2f%%\n", name, median(v), units[name], len(v), 100*spread(v))
			}
		}
	}
}

// declared is the part of BENCHMARK.json the comparison needs.
type declared struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict applies the benchmark's rule to one metric on one workload: a
// median worse by more than the bound has regressed; a spread wider than
// the bound leaves the pairing unresolved unless every run of b reads
// better than every run of a.
func verdict(a, b []float64, higherBetter bool, bound float64) string {
	worse := (median(b) - median(a)) / median(a)
	if higherBetter {
		worse = -worse
	}
	if worse > bound {
		return "regressed"
	}
	if math.Max(spread(a), spread(b)) > bound {
		sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
		sort.Float64s(sa)
		sort.Float64s(sb)
		allBetter := sb[len(sb)-1] < sa[0]
		if higherBetter {
			allBetter = sb[0] > sa[len(sa)-1]
		}
		if !allBetter {
			return "unresolved"
		}
	}
	return "ok"
}

// failedShare is the ops of a workload's runs that errored, were refused
// or produced a wrong output, over the ops attempted.
func failedShare(runs []runRecord, workload string) float64 {
	failed, attempted := 0, 0
	for _, r := range runs {
		if r.Workload == workload && r.Trace == 0 {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	if attempted == 0 {
		return math.NaN()
	}
	return float64(failed) / float64(attempted)
}

// compareFiles reads two result files and the bounds BENCHMARK.json fixes
// and compares them; it returns 1 on any regression.
func compareFiles(w io.Writer, pathA, pathB string) int {
	fa, err := readResultFile(pathA)
	if err != nil {
		fatal("%v", err)
	}
	fb, err := readResultFile(pathB)
	if err != nil {
		fatal("%v", err)
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fatal("the bounds come from BENCHMARK.json in the current directory: %v", err)
	}
	var decl declared
	if err := json.Unmarshal(data, &decl); err != nil {
		fatal("BENCHMARK.json: %v", err)
	}
	fmt.Fprintf(w, "A = %s (%s, %s)\nB = %s (%s, %s)\n", pathA, fa.Environment.Commit, fa.Environment.CPU,
		pathB, fb.Environment.Commit, fb.Environment.CPU)
	return compareRuns(w, decl, fa.Runs, fb.Runs)
}

// compareRuns prints, per workload row and metric, both medians and their
// ratio with its base, and for the end-to-end metrics the verdict by the
// declared bounds. A workload or metric that one side lacks has regressed,
// and so has a workload on which B failed a larger share of its ops than
// A: the bound on failures is 0. It returns 1 on any regression.
func compareRuns(w io.Writer, decl declared, runsA, runsB []runRecord) int {
	status := 0
	a, units := collect(runsA, 0)
	b, _ := collect(runsB, 0)
	both := map[string]bool{}
	for wl := range a {
		both[wl] = true
	}
	for wl := range b {
		both[wl] = true
	}
	if len(both) == 0 {
		fmt.Fprintln(w, "neither file holds an untraced run: nothing to compare")
		return 1
	}
	for _, wl := range sortedKeys(both) {
		fmt.Fprintf(w, "%s\n", wl)
		if a[wl] == nil || b[wl] == nil {
			fmt.Fprintf(w, "  no runs on one side  regressed\n")
			status = 1
			continue
		}
		fa, fb := failedShare(runsA, wl), failedShare(runsB, wl)
		v := "ok"
		if fb > fa {
			v, status = "regressed", 1
		}
		fmt.Fprintf(w, "  %-28s A %12.6g  B %12.6g %-6s bound 0 absolute  %s\n", "failed_share", fa, fb, "ratio", v)
		for _, m := range decl.EndToEnd {
			va, vb := a[wl][m.Name], b[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "  %-28s missing on one side  regressed\n", m.Name)
				status = 1
				continue
			}
			v := verdict(va, vb, m.Better == "higher", m.Bound)
			if v == "regressed" {
				status = 1
			}
			fmt.Fprintf(w, "  %-28s A %12.6g  B %12.6g %-6s B/A %.4f of %.6g  spread %.1f%% / %.1f%%  bound %.3g%%  %s\n",
				m.Name, median(va), median(vb), units[m.Name], median(vb)/median(va), median(va),
				100*spread(va), 100*spread(vb), 100*m.Bound, v)
		}
	}
	// The per-layer metrics have no bound: both values and the ratio.
	a, units = collect(runsA, 1)
	b, _ = collect(runsB, 1)
	for _, wl := range sortedKeys(a) {
		fmt.Fprintf(w, "%s (per layer)\n", wl)
		for _, name := range sortedKeys(a[wl]) {
			va, vb := a[wl][name], b[wl][name]
			if len(vb) == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-34s A %12.6g  B %12.6g %-6s B/A %.4f of %.6g\n",
				name, median(va), median(vb), units[name], median(vb)/median(va), median(va))
		}
	}
	return status
}
