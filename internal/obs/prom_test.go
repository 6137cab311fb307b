package obs

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestWritePrometheusLints(t *testing.T) {
	c := install(t)
	fakeClock(c, 250*time.Microsecond)
	GetCounter("dse.compiles").Add(12)
	GetCounter("serve.jobs_submitted").Inc()
	SetGauge("serve.queue_depth", 3)
	SetGauge("dse.compiles_per_sec", 48.5)
	h := GetHistogram("dse.eval_seconds")
	for i := 0; i < 50; i++ {
		h.Observe(float64(i) / 10)
	}
	sp := StartSpan("evaluate")
	sp.Child("sched").End()
	sp.End()

	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := LintPrometheus(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition does not lint: %v\n%s", err, out)
	}

	for _, want := range []string{
		"# TYPE cfp_dse_compiles_total counter",
		"cfp_dse_compiles_total 12",
		"# TYPE cfp_serve_queue_depth gauge",
		"cfp_serve_queue_depth 3",
		"# TYPE cfp_dse_eval_seconds summary",
		`cfp_dse_eval_seconds{quantile="0.5"}`,
		`cfp_dse_eval_seconds{quantile="0.99"}`,
		"cfp_dse_eval_seconds_sum",
		"cfp_dse_eval_seconds_count 50",
		`cfp_span_seconds_total{span="evaluate"}`,
		`cfp_span_count_total{span="sched"}`,
		"cfp_uptime_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

// TestMetricsDump: the exposition -metrics FILE writes carries the
// values of every kind of metric — counter, gauge, histogram summary
// with its sum, count, min and max, per-span-name totals — and the
// collector's uptime.
func TestMetricsDump(t *testing.T) {
	c := install(t)
	fakeClock(c, 250*time.Microsecond)
	GetCounter("dse.compiles").Add(12)
	SetGauge("dse.compiles_per_sec", 48.5)
	GetHistogram("dse.worker_busy_seconds").Observe(1.5)
	GetHistogram("dse.worker_busy_seconds").Observe(0.5)
	sp := StartSpan("evaluate")
	sp.Child("sched").End()
	sp.End()

	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := LintPrometheus(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exposition does not lint: %v\n%s", err, buf.String())
	}
	got := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			got[line[:i]] = v
		}
	}
	for name, want := range map[string]float64{
		"cfp_dse_compiles_total":                12,
		"cfp_dse_compiles_per_sec":              48.5,
		"cfp_dse_worker_busy_seconds_count":     2,
		"cfp_dse_worker_busy_seconds_sum":       2,
		"cfp_dse_worker_busy_seconds_min":       0.5,
		"cfp_dse_worker_busy_seconds_max":       1.5,
		`cfp_span_count_total{span="evaluate"}`: 1,
		`cfp_span_count_total{span="sched"}`:    1,
	} {
		if v, ok := got[name]; !ok || v != want {
			t.Errorf("%s = %v (present %v), want %v", name, v, ok, want)
		}
	}
	for _, name := range []string{`cfp_dse_worker_busy_seconds{quantile="0.5"}`, `cfp_span_seconds_total{span="evaluate"}`, "cfp_uptime_seconds"} {
		if got[name] <= 0 {
			t.Errorf("%s = %v, want positive", name, got[name])
		}
	}
}

// TestLabelValueEscapes: a span name from another process reaches the
// exposition as a label value escaped per the format — only \\, \"
// and \n are escapes, other bytes stay as they are, and a byte that is
// not UTF-8 reads U+FFFD — and the exposition lints.
func TestLabelValueEscapes(t *testing.T) {
	c := install(t)
	root := StartSpan("shard")
	root.AdoptRemote([]WireSpan{
		{Name: "a\tb\x01\xff", SpanID: "00000000000000a1"},
		{Name: "q\"\n\\", SpanID: "00000000000000a2"},
	})
	root.End()
	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"cfp_span_count_total{span=\"a\tb\x01\uFFFD\"} 1\n",
		`cfp_span_count_total{span="q\"\n\\"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks the line %q:\n%s", want, out)
		}
	}
	if err := LintPrometheus(strings.NewReader(out)); err != nil {
		t.Errorf("exposition does not lint: %v", err)
	}
}

func TestLintPrometheusRejectsGarbage(t *testing.T) {
	bad := []string{
		"no value\n",                                          // sample without value
		"cfp_x{label=unquoted} 1\n",                           // unquoted label value
		"cfp_x 1\ncfp_x 2\ncfp_y nan3\n",                      // malformed float
		"# TYPE cfp_x counter\n",                              // family with no samples
		"9leading_digit 1\n",                                  // invalid metric name
		"# TYPE cfp_x counter\ncfp_x{a=\"\\t\"} 1\n",          // escape the format lacks
		"# TYPE cfp_x counter\ncfp_x{a=\"\\\xff\"} 1\n",       // escaped byte that is no escape
		"# TYPE cfp_x counter\ncfp_x{a=\"\xff\"} 1\n",         // invalid UTF-8
		"# HELP cfp_x a\\tb\n# TYPE cfp_x counter\ncfp_x 1\n", // HELP escape the format lacks
	}
	for _, s := range bad {
		if err := LintPrometheus(strings.NewReader(s)); err == nil {
			t.Errorf("LintPrometheus accepted %q", s)
		}
	}
	good := "# HELP cfp_x help \\\\ text\\n\n# TYPE cfp_x counter\ncfp_x{a=\"b\",c=\"d e\\\"\\\\\\n\t\"} 1 1712000000\n"
	if err := LintPrometheus(strings.NewReader(good)); err != nil {
		t.Errorf("LintPrometheus rejected valid input: %v", err)
	}
}

// FuzzExposition renders a counter, a gauge and a histogram of any
// name, and a span of any name adopted from another process, and holds
// the exposition to three things: it lints, no family is declared twice,
// and every span label reads back, through the format's three escapes,
// as the name it was made from with each invalid byte read as U+FFFD.
func FuzzExposition(f *testing.F) {
	f.Add("dse.compiles", "serve.queue_depth", "dse.eval_seconds", "evaluate")
	f.Add("a.b", "a_b_total", "a_b", "a\tb\x01\xff")
	f.Add("span_seconds", "uptime_seconds", "x", "q\"\n\\")
	f.Add("", "x_min", "x", "")
	f.Fuzz(func(t *testing.T, counter, gauge, hist, span string) {
		c := install(t)
		GetCounter(counter).Inc()
		SetGauge(gauge, 1)
		GetHistogram(hist).Observe(1)
		root := StartSpan("root")
		root.AdoptRemote([]WireSpan{{Name: span, SpanID: "00000000000000a1"}})
		root.End()
		var buf bytes.Buffer
		if err := c.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		if err := LintPrometheus(strings.NewReader(out)); err != nil {
			t.Fatalf("exposition does not lint: %v\n%s", err, out)
		}
		declared := map[string]bool{}
		labels := map[string]bool{}
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" && (f[1] == "TYPE" || f[1] == "HELP") {
				if key := f[1] + " " + f[2]; declared[key] {
					t.Fatalf("%s declared twice:\n%s", key, out)
				} else {
					declared[key] = true
				}
			}
			if v, ok := strings.CutPrefix(line, "cfp_span_count_total{span=\""); ok {
				labels[unescapeLabel(t, v)] = true
			}
		}
		want := string([]rune(span)) // each invalid byte as U+FFFD
		if len(labels) != 2 || !labels["root"] || !labels[want] {
			t.Fatalf("span labels read back as %v, want root and %q", labels, want)
		}
	})
}

// unescapeLabel reads a label value up to its closing quote, undoing the
// format's three escapes.
func unescapeLabel(t *testing.T, v string) string {
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '"':
			return b.String()
		case '\\':
			i++
			switch v[i] {
			case 'n':
				b.WriteByte('\n')
			default: // \\ or \", as the lint has checked
				b.WriteByte(v[i])
			}
		default:
			b.WriteByte(v[i])
		}
	}
	t.Fatalf("unterminated label value %q", v)
	return ""
}
