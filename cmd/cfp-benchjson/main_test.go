package main

import (
	"fmt"
	"strings"
	"testing"
)

// r100 is a parent's ten readings with a 4.5% inter-quartile spread
// around 100; drift is a host that ran three of the rounds 1.3x slower.
var (
	r100  = []float64{100, 104, 98, 102, 96, 105, 101, 99, 103, 97}
	drift = []float64{1, 1.3, 1, 1, 1.3, 1, 1.3, 1, 1, 1}
)

// scaled multiplies round i of vs by f[i%len(f)].
func scaled(vs []float64, f ...float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v * f[i%len(f)]
	}
	return out
}

// run renders one benchmark's rounds as `go test -bench` text: round i
// reports vals[i] in unit, followed by the same extra metrics every round.
func run(name, unit string, vals []float64, extras string) string {
	var sb strings.Builder
	sb.WriteString("goos: linux\ncpu: Test CPU @ 1GHz\n")
	for _, v := range vals {
		fmt.Fprintf(&sb, "%s-2 \t     100\t  %v %s\t%s\n", name, v, unit, extras)
	}
	sb.WriteString("PASS\nok  \tcustomfit/internal/x\t1.0s\n")
	return sb.String()
}

func TestJudge(t *testing.T) {
	const x, y, ns, rate = "BenchmarkX", "BenchmarkY", "ns/op", "Mcycles/s"
	type want = map[series]string // "rule/result"; nil: judge must return an error
	for _, tc := range []struct {
		name, parent, change string
		want                 want
	}{
		{"identical sides", run(x, ns, r100, "63 allocs/op"), run(x, ns, r100, "63 allocs/op"),
			want{{x, ns}: "paired/ok", {x, "allocs/op"}: "exact/ok"}},
		{"host drift hits the same rounds of both sides", run(x, ns, scaled(r100, drift...), ""), run(x, ns, scaled(r100, drift...), ""),
			want{{x, ns}: "paired/ok"}},
		{"one more allocation", run(x, ns, r100, "63 allocs/op"), run(x, ns, r100, "64 allocs/op"),
			want{{x, ns}: "paired/ok", {x, "allocs/op"}: "exact/fail"}},
		{"one allocation fewer", run(x, ns, r100, "63 allocs/op"), run(x, ns, r100, "62 allocs/op"),
			want{{x, "allocs/op"}: "exact/improved"}},
		{"1.2x slower in every round against a 4.5% parent spread", run(x, ns, r100, ""), run(x, ns, scaled(r100, 1.2), ""),
			want{{x, ns}: "paired/fail"}},
		{"1.2x faster in every round", run(x, ns, scaled(r100, 1.2), ""), run(x, ns, r100, ""),
			want{{x, ns}: "paired/improved"}},
		{"1.2x slower in six rounds of ten", run(x, ns, r100, ""), run(x, ns, scaled(r100, 1.2, 1.2, 1.2, 1.2, 1.2, 1.2, .99, .99, .99, .99), ""),
			want{{x, ns}: "paired/unresolved"}},
		{"a steady rate is better when higher", run(x, ns, r100, "50.0 Mcycles/s"), run(x, ns, r100, "40.0 Mcycles/s"),
			want{{x, rate}: "exact/fail"}},
		{"a wobbling rate that fell in every round", run(x, rate, r100, ""), run(x, rate, scaled(r100, 1/1.2), ""),
			want{{x, rate}: "paired/fail"}},
		{"a wobbling rate that rose in every round", run(x, rate, r100, ""), run(x, rate, scaled(r100, 1.2), ""),
			want{{x, rate}: "paired/improved"}},
		{"benchmark missing on the change side", run(x, ns, r100, "") + run(y, ns, r100, ""), run(x, ns, r100, ""),
			want{{x, ns}: "paired/ok", {y, ns}: "/fail"}},
		{"metric missing on the change side", run(x, ns, r100, "7 runs/op"), run(x, ns, r100, ""),
			want{{x, "runs/op"}: "/fail"}},
		{"benchmark and metric new on the change side", run(x, ns, r100, ""), run(x, ns, r100, "7 runs/op") + run(y, ns, r100, ""),
			want{{x, ns}: "paired/ok", {x, "runs/op"}: "/new", {y, ns}: "/new"}},
		{"unequal round counts", run(x, ns, r100, ""), run(x, ns, r100[:9], ""), nil},
		{"a single round", run(x, ns, r100[:1], ""), run(x, ns, r100[:1], ""), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parent, _, _ := parse(strings.NewReader(tc.parent))
			change, _, _ := parse(strings.NewReader(tc.change))
			verdicts, err := judge(parent, change)
			if (err != nil) != (tc.want == nil) {
				t.Fatalf("judge returned %v, %v", verdicts, err)
			}
			got := want{}
			for _, v := range verdicts {
				got[v.series] = v.Rule + "/" + v.Result
				// Only a "fail" makes the tool exit 1: none may appear unasked.
				if v.Result == "fail" && tc.want[v.series] != got[v.series] {
					t.Errorf("%v: unexpected %v", v.series, v)
				}
			}
			for k, w := range tc.want {
				if got[k] != w {
					t.Errorf("%v: judged %q, want %q (all verdicts: %v)", k, got[k], w, verdicts)
				}
			}
		})
	}
}

func TestParseCustomMetrics(t *testing.T) {
	const text = `goos: linux
goarch: amd64
pkg: customfit/internal/dse
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkExploreOpsSubset-2   	       3	 108453730 ns/op	       384.0 evals	      1540 runs	35963370 B/op	  323008 allocs/op
PASS
ok  	customfit/internal/dse	1.279s
pkg: customfit/internal/sim
BenchmarkSimRun-2   	      50	  10668753 ns/op	        48.66 Mcycles/s	    580769 cycles/op	  334021 B/op	      63 allocs/op
`
	bs, env, err := parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 2 || bs[0].Name != "BenchmarkExploreOpsSubset" || bs[1].Name != "BenchmarkSimRun" ||
		bs[0].Iterations != 3 || bs[1].Iterations != 50 {
		t.Fatalf("parsed %+v, want the two benchmarks, 3 and 50 iterations, the -2 decoration stripped", bs)
	}
	if *env != (Environment{env.GoVersion, "linux", "amd64", "Intel(R) Xeon(R) Processor @ 2.10GHz", 2}) {
		t.Errorf("environment = %+v", env)
	}
	got := rounds(bs)
	for k, v := range map[series]float64{
		{bs[0].Name, "ns/op"}: 108453730, {bs[0].Name, "evals"}: 384, {bs[0].Name, "runs"}: 1540, {bs[0].Name, "allocs/op"}: 323008,
		{bs[1].Name, "Mcycles/s"}: 48.66, {bs[1].Name, "cycles/op"}: 580769, {bs[1].Name, "B/op"}: 334021, {bs[1].Name, "allocs/op"}: 63,
	} {
		if len(got[k]) != 1 || got[k][0] != v {
			t.Errorf("%v = %v, want [%v]", k, got[k], v)
		}
	}
}
