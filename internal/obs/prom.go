package obs

// Prometheus text exposition (format version 0.0.4) for the collector,
// plus a standalone format validator used by tests and the fleet smoke
// check. This is the one encoding of the collector's metrics: cfp-serve's
// GET /metrics answers it and every tool's -metrics FILE writes it.
// Metric naming: every family is prefixed "cfp_", dots and other
// non-identifier bytes become underscores, counters gain "_total", and
// histograms export as summaries with p50/p95/p99 quantile labels (see
// the naming table in docs/OBSERVABILITY.md).

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// PrometheusContentType is the Content-Type of WritePrometheus output.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders the collector's counters, gauges, histograms
// and per-span-name totals in the Prometheus text exposition format.
// Output is deterministically sorted. Two metric names can map to one
// family name ("a.b" and "a_b"); each family is declared once, by the
// first metric to claim it — counters, then gauges, then histograms,
// each in name order — and the others are left out.
func (c *Collector) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	claimed := map[string]bool{"cfp_span_seconds_total": true, "cfp_span_count_total": true, "cfp_uptime_seconds": true}
	claim := func(fams ...string) bool {
		for _, f := range fams {
			if claimed[f] {
				return false
			}
		}
		for _, f := range fams {
			claimed[f] = true
		}
		return true
	}
	family := func(fam, typ, help string) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", fam, promEscape(help, false), fam, typ)
	}

	c.cmu.Lock()
	counterNames := sortedKeys(c.counters)
	counterVals := make(map[string]int64, len(c.counters))
	for name, ct := range c.counters {
		counterVals[name] = ct.Value()
	}
	c.cmu.Unlock()
	for _, name := range counterNames {
		if fam := promName(name) + "_total"; claim(fam) {
			family(fam, "counter", "Counter "+name+".")
			fmt.Fprintf(bw, "%s %d\n", fam, counterVals[name])
		}
	}

	c.gmu.Lock()
	gaugeNames := sortedKeys(c.gauges)
	gaugeVals := make(map[string]float64, len(c.gauges))
	for name, v := range c.gauges {
		gaugeVals[name] = v
	}
	c.gmu.Unlock()
	for _, name := range gaugeNames {
		if fam := promName(name); claim(fam) {
			family(fam, "gauge", "Gauge "+name+".")
			fmt.Fprintf(bw, "%s %s\n", fam, promFloat(gaugeVals[name]))
		}
	}

	c.hmu.Lock()
	histNames := sortedKeys(c.hists)
	hists := make(map[string]*Histogram, len(c.hists))
	for name, h := range c.hists {
		hists[name] = h
	}
	c.hmu.Unlock()
	for _, name := range histNames {
		fam := promName(name)
		if !claim(fam, fam+"_sum", fam+"_count", fam+"_min", fam+"_max") {
			continue
		}
		h := hists[name]
		count, sum, min, max := h.Summary()
		qs := h.Quantiles(0.5, 0.95, 0.99)
		family(fam, "summary", "Summary "+name+".")
		for i, q := range []string{"0.5", "0.95", "0.99"} {
			fmt.Fprintf(bw, "%s{quantile=%s} %s\n", fam, promEscape(q, true), promFloat(qs[i]))
		}
		fmt.Fprintf(bw, "%s_sum %s\n", fam, promFloat(sum))
		fmt.Fprintf(bw, "%s_count %d\n", fam, count)
		fmt.Fprintf(bw, "# TYPE %s_min gauge\n%s_min %s\n", fam, fam, promFloat(min))
		fmt.Fprintf(bw, "# TYPE %s_max gauge\n%s_max %s\n", fam, fam, promFloat(max))
	}

	// Per-span-name totals, one family with a span label each. Names
	// that differ only in invalid bytes quote to one label: one series.
	type spanAgg struct {
		count   int64
		seconds float64
	}
	byName := map[string]spanAgg{}
	for _, e := range c.Events() {
		a := byName[e.Name]
		a.count++
		a.seconds += e.Dur.Seconds()
		byName[e.Name] = a
	}
	aggs := make(map[string]spanAgg, len(byName))
	for _, name := range sortedKeys(byName) {
		label := promEscape(name, true)
		a := aggs[label]
		a.count += byName[name].count
		a.seconds += byName[name].seconds
		aggs[label] = a
	}
	if labels := sortedKeys(aggs); len(labels) > 0 {
		family("cfp_span_seconds_total", "counter", "Total seconds spent in spans, by span name.")
		for _, l := range labels {
			fmt.Fprintf(bw, "cfp_span_seconds_total{span=%s} %s\n", l, promFloat(aggs[l].seconds))
		}
		family("cfp_span_count_total", "counter", "Completed spans, by span name.")
		for _, l := range labels {
			fmt.Fprintf(bw, "cfp_span_count_total{span=%s} %d\n", l, aggs[l].count)
		}
	}

	family("cfp_uptime_seconds", "gauge", "Seconds since the collector started.")
	fmt.Fprintf(bw, "cfp_uptime_seconds %s\n", promFloat(c.now().Seconds()))

	return bw.Flush()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// promName maps an internal dotted metric name ("dse.worker_busy_seconds")
// to a Prometheus family name ("cfp_dse_worker_busy_seconds").
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 4)
	b.WriteString("cfp_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case '0' <= c && c <= '9':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders a float sample value (Prometheus accepts Go's
// shortest form, plus NaN/Inf spellings which strconv produces too).
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promEscape escapes s per the exposition format, the one spelling of
// every HELP text (quoted false) and every label value (quoted true,
// returned inside its double quotes): a backslash and a newline are
// escaped, a double quote too in a label value, and each byte that is
// not valid UTF-8 becomes U+FFFD. Nothing else is escaped.
func promEscape(s string, quoted bool) string {
	var b strings.Builder
	b.Grow(len(s) + 2)
	if quoted {
		b.WriteByte('"')
	}
	for _, r := range s { // an invalid byte ranges as utf8.RuneError, U+FFFD
		switch {
		case r == '\\':
			b.WriteString(`\\`)
		case r == '\n':
			b.WriteString(`\n`)
		case r == '"' && quoted:
			b.WriteString(`\"`)
		default:
			b.WriteRune(r)
		}
	}
	if quoted {
		b.WriteByte('"')
	}
	return b.String()
}

// LintPrometheus validates r as Prometheus text exposition format
// (version 0.0.4): UTF-8 text, name syntax, float sample values, label
// quoting with no escapes but \\, \" and \n (a HELP text: \\ and \n), a
// TYPE line preceding every sample's family, and no duplicate TYPE
// declarations. Returns the first violation with its line number.
func LintPrometheus(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	typed := map[string]string{}
	samples := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if !utf8.ValidString(line) {
			return fmt.Errorf("line %d: not valid UTF-8", lineNo)
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || fields[0] != "#" {
				continue // free-form comment
			}
			switch fields[1] {
			case "TYPE":
				if len(fields) != 4 {
					return fmt.Errorf("line %d: malformed TYPE line", lineNo)
				}
				name, typ := fields[2], fields[3]
				if !validMetricName(name) {
					return fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
				}
				switch typ {
				case "counter", "gauge", "summary", "histogram", "untyped":
				default:
					return fmt.Errorf("line %d: unknown metric type %q", lineNo, typ)
				}
				if _, dup := typed[name]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				}
				typed[name] = typ
			case "HELP":
				if !validMetricName(fields[2]) {
					return fmt.Errorf("line %d: invalid metric name %q", lineNo, fields[2])
				}
				for i := 0; len(fields) == 4 && i < len(fields[3]); i++ {
					if fields[3][i] == '\\' {
						if i++; i == len(fields[3]) || fields[3][i] != '\\' && fields[3][i] != 'n' {
							return fmt.Errorf("line %d: invalid escape in HELP text", lineNo)
						}
					}
				}
			}
			continue
		}
		name, rest, err := splitSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		if !validMetricName(name) {
			return fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
		}
		if !familyTyped(typed, name) {
			return fmt.Errorf("line %d: sample %q has no preceding TYPE", lineNo, name)
		}
		val := strings.Fields(rest)
		if len(val) < 1 || len(val) > 2 {
			return fmt.Errorf("line %d: expected value [timestamp], got %q", lineNo, rest)
		}
		if _, err := strconv.ParseFloat(val[0], 64); err != nil {
			return fmt.Errorf("line %d: bad sample value %q", lineNo, val[0])
		}
		if len(val) == 2 {
			if _, err := strconv.ParseInt(val[1], 10, 64); err != nil {
				return fmt.Errorf("line %d: bad timestamp %q", lineNo, val[1])
			}
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if samples == 0 {
		return fmt.Errorf("no samples in exposition")
	}
	return nil
}

// splitSample splits "name{labels} value" into the metric name and the
// remainder after the optional label set, validating label syntax.
func splitSample(line string) (name, rest string, err error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", "", fmt.Errorf("malformed sample line %q", line)
	}
	name = line[:i]
	if line[i] == ' ' {
		return name, line[i+1:], nil
	}
	// Parse {k="v",...} with escaped quotes.
	j := i + 1
	for j < len(line) && line[j] != '}' {
		start := j
		for j < len(line) && line[j] != '=' {
			j++
		}
		if j >= len(line) || !validLabelName(line[start:j]) {
			return "", "", fmt.Errorf("bad label name in %q", line)
		}
		j++ // '='
		if j >= len(line) || line[j] != '"' {
			return "", "", fmt.Errorf("unquoted label value in %q", line)
		}
		j++
		for j < len(line) && line[j] != '"' {
			if line[j] == '\\' {
				if j++; j < len(line) && !strings.ContainsRune(`\"n`, rune(line[j])) {
					return "", "", fmt.Errorf("invalid escape %q in label value of %q", line[j-1:j+1], line)
				}
			}
			j++
		}
		if j >= len(line) {
			return "", "", fmt.Errorf("unterminated label value in %q", line)
		}
		j++ // closing quote
		if j < len(line) && line[j] == ',' {
			j++
		}
	}
	if j >= len(line) {
		return "", "", fmt.Errorf("unterminated label set in %q", line)
	}
	j++ // '}'
	if j >= len(line) || line[j] != ' ' {
		return "", "", fmt.Errorf("missing value after labels in %q", line)
	}
	return name, line[j+1:], nil
}

// familyTyped reports whether name, or its family after stripping a
// summary/histogram suffix, has a TYPE declaration.
func familyTyped(typed map[string]string, name string) bool {
	if _, ok := typed[name]; ok {
		return true
	}
	for _, suf := range []string{"_sum", "_count", "_bucket"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if _, ok := typed[base]; ok {
				return true
			}
		}
	}
	return false
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' ||
			(i > 0 && '0' <= c && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' ||
			(i > 0 && '0' <= c && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
