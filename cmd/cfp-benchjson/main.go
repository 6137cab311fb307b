// cfp-benchjson reads `go test -bench` text and either records it or
// judges it against a second run (see docs/PERFORMANCE.md, "Tracking
// the numbers", and the Makefile's `bench` and `bench-diff` targets).
//
// Recording turns the text into a stable JSON document — the benchmark
// lines plus where they were measured — so the trajectory can be
// tracked across PRs:
//
//	go test -bench=. -benchmem ./internal/dse/ | cfp-benchjson -o BENCH_explore.json
//
// Judging compares two runs of the same benchmarks, each repeated over
// the same number of rounds (`make bench-diff` alternates a build of
// the parent commit with a build of the change):
//
//	cfp-benchjson -against parent.txt < change.txt
//
// One rule covers every (benchmark, metric). Where all rounds of a side
// agree, on both sides, the metric counts deterministic work and the
// two values are compared exactly: any growth fails. Everything else is
// timing and is judged round by round on change/parent: it fails only
// when the change is worse in at least nine rounds of ten and the
// median ratio is off by more than the parent's own inter-quartile
// spread; short of that it is ok, improved or unresolved. Units ending
// in "/s" are better when higher, all others when lower. The exit
// status is 1 when anything failed.
//
// The parser understands the standard benchmark line shape — a tab- or
// space-separated name, an iteration count, then repeated "value unit"
// pairs — and ignores everything else (goos/pkg headers, PASS, ok).
package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"customfit/internal/cli"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Environment records where the numbers came from, so a trajectory
// diff across PRs can tell a code change from a machine change. The
// CPU model, OS and architecture come from the `go test` header lines;
// GOMAXPROCS from the benchmark-name "-N" decoration (falling back to
// this process); the Go version from the toolchain that built this
// tool — the same one that ran the benchmarks in a `make bench` run.
type Environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`
	CPU        string `json:"cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

type document struct {
	Generated   string       `json:"generated"`
	Environment *Environment `json:"environment,omitempty"`
	Benchmarks  []Benchmark  `json:"benchmarks"`
}

func main() {
	var (
		out     = flag.String("o", "", "write JSON here (default stdout)")
		against = flag.String("against", "", "`go test -bench` text of the parent's rounds: judge stdin against it (exit 1 when a metric fails; no JSON unless -o is given)")
	)
	tool := cli.NewTool("cfp-benchjson")
	flag.Parse()
	if err := tool.Start(); err != nil {
		tool.Fatal(err)
	}
	defer tool.Close()

	cur, env, err := parse(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(cur) == 0 {
		fatal(fmt.Errorf("no benchmark lines on stdin"))
	}
	if *against != "" {
		f, err := os.Open(*against)
		if err != nil {
			fatal(err)
		}
		parent, _, err := parse(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *against, err))
		}
		verdicts, err := judge(parent, cur)
		if err != nil {
			fatal(err)
		}
		failed := 0
		for _, v := range verdicts {
			fmt.Printf("%-26s %-21s %-6s %-10s %s\n", v.Benchmark, v.Metric, v.Rule, v.Result, v.Detail)
			if v.Result == "fail" {
				failed++
			}
		}
		if failed > 0 {
			fatal(fmt.Errorf("%d of %d comparisons failed", failed, len(verdicts)))
		}
		if *out == "" {
			return
		}
	}
	buf, err := json.MarshalIndent(document{
		Generated:   time.Now().UTC().Format(time.RFC3339),
		Environment: env,
		Benchmarks:  cur,
	}, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
}

// parse extracts benchmark lines and the environment header
// (goos/goarch/cpu lines, GOMAXPROCS name decorations) from go test
// -bench output.
func parse(r io.Reader) ([]Benchmark, *Environment, error) {
	env := &Environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	var out []Benchmark
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			switch {
			case strings.HasPrefix(line, "goos: "):
				env.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos: "))
			case strings.HasPrefix(line, "goarch: "):
				env.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch: "))
			case strings.HasPrefix(line, "cpu: "):
				env.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu: "))
			}
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		// A trailing "-N" is the GOMAXPROCS decoration: strip it, so
		// BenchmarkFoo-8 and BenchmarkFoo are one benchmark across machines.
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i >= 0 {
			if n, err := strconv.Atoi(name[i+1:]); err == nil {
				env.GOMAXPROCS, name = n, name[:i]
			}
		}
		b := Benchmark{
			Name:       name,
			Iterations: iters,
			Metrics:    map[string]float64{},
		}
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			b.Metrics[fields[i+1]] = v
		}
		if ok {
			out = append(out, b)
		}
	}
	return out, env, sc.Err()
}

// series names one metric of one benchmark.
type series struct{ Benchmark, Metric string }

// verdict is the judgement of one series of the change against the
// parent.
type verdict struct {
	series
	Rule   string // "exact" or "paired"; "" when nothing was compared
	Result string // "ok", "improved", "unresolved", "fail", or "new" (not gated)
	Detail string
}

// rounds collects one run's values per series, one per round.
func rounds(bs []Benchmark) map[series][]float64 {
	by := map[series][]float64{}
	for _, b := range bs {
		for metric, v := range b.Metrics {
			k := series{b.Name, metric}
			by[k] = append(by[k], v)
		}
	}
	return by
}

// judge compares every series of the parent's rounds with the change's.
// What the parent measured and the change did not fails; what only the
// change measures is reported and not gated. Round i of one side is
// paired with round i of the other, so both sides must have run the
// same number of rounds, and more than one: a single round cannot tell
// deterministic work from timing.
func judge(parent, change []Benchmark) ([]verdict, error) {
	p, c := rounds(parent), rounds(change)
	var out []verdict
	for k, pv := range p {
		cv := c[k]
		switch {
		case cv == nil:
			out = append(out, verdict{k, "", "fail", "missing on the change side"})
		case len(pv) != len(cv) || len(pv) < 2:
			return nil, fmt.Errorf("%s %s: %d parent rounds, %d change rounds; need the same number, at least 2",
				k.Benchmark, k.Metric, len(pv), len(cv))
		default:
			v := compare(pv, cv, strings.HasSuffix(k.Metric, "/s"))
			v.series = k
			out = append(out, v)
		}
	}
	for k := range c {
		if p[k] == nil {
			out = append(out, verdict{k, "", "new", "only on the change side, not gated"})
		}
	}
	slices.SortFunc(out, func(a, b verdict) int {
		return cmp.Or(strings.Compare(a.Benchmark, b.Benchmark), strings.Compare(a.Metric, b.Metric))
	})
	return out, nil
}

// compare applies the one rule to the rounds of one series.
func compare(pv, cv []float64, higherIsBetter bool) verdict {
	if slices.Min(pv) == slices.Max(pv) && slices.Min(cv) == slices.Max(cv) {
		v := verdict{Rule: "exact", Result: "ok", Detail: num(pv[0]) + " = " + num(cv[0])}
		if cv[0] != pv[0] {
			v.Result, v.Detail = "improved", num(pv[0])+" -> "+num(cv[0])
			if cv[0] > pv[0] != higherIsBetter {
				v.Result = "fail"
			}
		}
		return v
	}
	n := len(pv)
	ratios := make([]float64, n)
	worse, better := 0, 0
	for i := range pv {
		ratios[i] = cv[i] / pv[i]
		switch {
		case cv[i] == pv[i]:
			ratios[i] = 1 // also 0/0
		case cv[i] > pv[i] != higherIsBetter:
			worse++
		default:
			better++
		}
	}
	med, pmed := quantile(ratios, 0.5), quantile(pv, 0.5)
	spread := quantile(pv, 0.75) - quantile(pv, 0.25)
	if spread > 0 {
		spread /= pmed
	}
	beyond := math.Abs(med-1) > spread
	need := (9*n + 9) / 10 // nine rounds of ten, rounded up
	v := verdict{Rule: "paired", Result: "unresolved"}
	switch {
	case worse >= need && beyond:
		v.Result = "fail"
	case better >= need && beyond:
		v.Result = "improved"
	case worse < need && better < need && !beyond:
		v.Result = "ok"
	}
	v.Detail = fmt.Sprintf("median %.4g -> %.4g, change/parent x%.3f, worse in %d and better in %d of %d rounds, parent spread %.1f%%",
		pmed, quantile(cv, 0.5), med, worse, better, n, 100*spread)
	return v
}

// quantile interpolates linearly between the order statistics of vs.
func quantile(vs []float64, q float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	h := q * float64(len(s)-1)
	lo := min(int(h), len(s)-2)
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cfp-benchjson:", err)
	os.Exit(1)
}
