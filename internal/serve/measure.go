package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"time"

	"customfit/internal/dse"
	"customfit/internal/evcache"
	"customfit/internal/machine"
)

// Measurement is the answer to an unpriced explore of schema 3
// (SchemaMeasured): per benchmark and machine the four numbers a cell
// is measured by, and the job's work. It leaves out what the submitter
// already holds — the machines, which it sent, are named only by their
// Digest — and everything priced, which the submitter prices itself.
type Measurement struct {
	// Benches are the benchmarks measured, in the job's order.
	Benches []string
	// Machines is how many machines each benchmark was measured on, and
	// Digest the digest of their list, in the order measured.
	Machines int
	Digest   Digest
	// Runs counts the compilations spent on those machines
	// (dse.Stats.Runs less BaselineRuns), Failures the cells where no
	// unroll factor fit; Compile and Simulate are the job's
	// dse.PhaseTimes of those names.
	Runs, Failures    int64
	Compile, Simulate time.Duration
	// Cells holds one cell per benchmark and machine: benchmark-major,
	// the machines in order.
	Cells []Cell
}

// Cell is one (benchmark, machine) measurement: the members of a
// dse.Evaluation that neither name the cell nor price it.
type Cell struct {
	Unroll  int
	Cycles  int64
	Spilled int
	Failed  bool
}

// Digest sums up a list of machines in order: FNV-1a, a field at a
// time, over every field of every machine. It tells a submitter whether
// a measurement is of the machines it asked for, in its order; it is no
// defence against a worker that forges one.
type Digest uint64

// EmptyDigest is the digest of no machines.
const EmptyDigest Digest = 14695981039346656037

// Add returns the digest of the list d sums up followed by a.
func (d Digest) Add(a machine.Arch) Digest {
	minMax := uint64(0)
	if a.MinMax {
		minMax = 1
	}
	for _, v := range [...]uint64{uint64(a.ALUs), uint64(a.MULs), uint64(a.Regs), uint64(a.L2Ports),
		uint64(a.L2Lat), uint64(a.Clusters), minMax, a.Ops.Mask} {
		d = (d ^ Digest(v)) * 1099511628211
	}
	return d
}

// MeasurementOf reads res as a Measurement. The machines are the ones
// res's evaluations name, which must be the same list for every
// benchmark, each evaluation of its own benchmark: a coordinator reads
// the results document of a worker without schema 3 this way, and
// checks both kinds of answer by one rule.
func MeasurementOf(res *dse.Results) (*Measurement, error) {
	m := &Measurement{
		Benches:  res.Benches,
		Runs:     res.Stats.Runs - res.Stats.BaselineRuns,
		Failures: res.Stats.Failures,
		Compile:  res.Stats.Phases.Compile,
		Simulate: res.Stats.Phases.Simulate,
		Digest:   EmptyDigest,
	}
	if len(res.Benches) == 0 {
		return m, nil
	}
	first := res.Eval[res.Benches[0]]
	m.Machines = len(first)
	m.Cells = make([]Cell, 0, len(res.Benches)*len(first))
	for _, ev := range first {
		m.Digest = m.Digest.Add(ev.Arch)
	}
	for _, b := range res.Benches {
		evs := res.Eval[b]
		if len(evs) != len(first) {
			return nil, fmt.Errorf("serve: %d evaluations of %s, %d of %s", len(evs), b, len(first), res.Benches[0])
		}
		for k, ev := range evs {
			if ev.Bench != b || ev.Arch != first[k].Arch || ev.Cancelled {
				return nil, fmt.Errorf("serve: evaluation %d of %s is of %s on %v (cancelled: %v), want %v",
					k, b, ev.Bench, ev.Arch, ev.Cancelled, first[k].Arch)
			}
			m.Cells = append(m.Cells, Cell{Unroll: ev.Unroll, Cycles: ev.Cycles, Spilled: ev.Spilled, Failed: ev.Failed})
		}
	}
	return m, nil
}

// AppendMeasurement appends m's measurement document to dst:
//
//	{"benches":["G"],"machines":2,"digest":"9f3c…","runs":8,"failures":0,
//	 "compile":1200,"simulate":300,"cells":[2,1234,0,0,1,1570,3,0]}
//
// on one line, durations in nanoseconds, digest in 16 hex digits, and
// each cell as its unroll factor, cycles, spilled registers and 1 when
// it failed (0 otherwise). It is compact JSON with nothing escaped, and
// ReadMeasurement reads exactly it. Benchmark names must be plain
// (printable ASCII that JSON does not escape), as the suite's are; the
// counts, durations and cell members must not be negative.
func AppendMeasurement(dst []byte, m *Measurement) ([]byte, error) {
	if len(m.Cells) != len(m.Benches)*m.Machines {
		return dst, fmt.Errorf("serve: %d cells for %d benchmarks on %d machines", len(m.Cells), len(m.Benches), m.Machines)
	}
	if m.Machines < 0 || m.Runs < 0 || m.Failures < 0 || m.Compile < 0 || m.Simulate < 0 {
		return dst, fmt.Errorf("serve: negative count in a measurement")
	}
	size := len(`{"benches":[],"machines":,"digest":"0123456789abcdef","runs":,"failures":,"compile":,"simulate":,"cells":[]}`) +
		decimals(int64(m.Machines)) + decimals(m.Runs) + decimals(m.Failures) + decimals(int64(m.Compile)) + decimals(int64(m.Simulate))
	for _, b := range m.Benches {
		if !evcache.Plain(b) {
			return dst, fmt.Errorf("serve: benchmark name %q is not plain", b)
		}
		size += len(b) + 3 // quotes and comma
	}
	for _, c := range m.Cells {
		if c.Unroll < 0 || c.Cycles < 0 || c.Spilled < 0 {
			return dst, fmt.Errorf("serve: negative cell %+v", c)
		}
		size += decimals(int64(c.Unroll)) + decimals(c.Cycles) + decimals(int64(c.Spilled)) + 5 // failed and 4 commas
	}
	dst = slices.Grow(dst, size)
	dst = append(dst, `{"benches":[`...)
	for i, b := range m.Benches {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(append(append(dst, '"'), b...), '"')
	}
	dst = strconv.AppendInt(append(dst, `],"machines":`...), int64(m.Machines), 10)
	dst = append(dst, `,"digest":"`...)
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, "0123456789abcdef"[m.Digest>>shift&15])
	}
	dst = strconv.AppendInt(append(dst, `","runs":`...), m.Runs, 10)
	dst = strconv.AppendInt(append(dst, `,"failures":`...), m.Failures, 10)
	dst = strconv.AppendInt(append(dst, `,"compile":`...), int64(m.Compile), 10)
	dst = strconv.AppendInt(append(dst, `,"simulate":`...), int64(m.Simulate), 10)
	dst = append(dst, `,"cells":[`...)
	for i, c := range m.Cells {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(c.Unroll), 10)
		dst = strconv.AppendInt(append(dst, ','), c.Cycles, 10)
		dst = strconv.AppendInt(append(dst, ','), int64(c.Spilled), 10)
		failed := byte('0')
		if c.Failed {
			failed = '1'
		}
		dst = append(dst, ',', failed)
	}
	return append(dst, "]}"...), nil
}

// decimals is the length of v's decimal spelling, for v ≥ 0.
func decimals(v int64) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// ReadMeasurement reads a measurement document in the one shape
// AppendMeasurement writes, to the last byte, and refuses anything else
// — a document encoding/json would read otherwise included — naming the
// offset where it departs. What it reads, json.Unmarshal reads alike, and
// AppendMeasurement writes back byte for byte.
func ReadMeasurement(data []byte) (*Measurement, error) {
	m, end := readMeasurement(data)
	if m == nil || end != len(data) {
		return nil, fmt.Errorf("serve: measurement document departs from its shape at byte %d of %d", end, len(data))
	}
	return m, nil
}

// readMeasurement reads the measurement document data begins with and
// returns it with the offset just past its closing brace, or nil and
// the offset where data departs from the document's shape.
func readMeasurement(data []byte) (*Measurement, int) {
	r := &measureReader{b: data}
	m := &Measurement{}
	r.lit(`{"benches":[`)
	if !r.take("]") {
		for more := true; more && !r.bad; more = r.take(",") {
			m.Benches = append(m.Benches, r.name())
		}
		r.lit("]")
	}
	m.Machines = int(r.num(`,"machines":`))
	r.lit(`,"digest":"`)
	for range 16 {
		m.Digest = m.Digest<<4 | Digest(r.hex())
	}
	m.Runs = r.num(`","runs":`)
	m.Failures = r.num(`,"failures":`)
	m.Compile = time.Duration(r.num(`,"compile":`))
	m.Simulate = time.Duration(r.num(`,"simulate":`))
	r.lit(`,"cells":[`)
	// A cell takes eight bytes at least, which bounds what a document
	// can make this allocate by its length.
	if left := (len(data) - r.i) / 8; !r.bad && len(m.Benches) > 0 && m.Machines > 0 {
		if m.Machines > left || len(m.Benches)*m.Machines > left {
			r.bad = true
		} else {
			m.Cells = make([]Cell, len(m.Benches)*m.Machines)
		}
	}
	// Nearly all of the document, so read without the cursor: four
	// numbers a cell, all behind a comma but the first.
	b, i := data, r.i
	for k := 0; k < len(m.Cells) && i >= 0; k++ {
		var f [4]int64
		for j := 0; j < len(f) && i >= 0; j++ {
			if k+j > 0 {
				if i >= len(b) || b[i] != ',' {
					i = -1
					break
				}
				i++
			}
			f[j], i = number(b, i)
		}
		if f[3] > 1 {
			i = -1
		}
		m.Cells[k] = Cell{Unroll: int(f[0]), Cycles: f[1], Spilled: int(f[2]), Failed: f[3] == 1}
	}
	if i < 0 {
		r.bad = true
	} else {
		r.i = i
	}
	r.lit("]}")
	if r.bad {
		return nil, r.i
	}
	return m, r.i
}

// ReadMeasuredStatus reads a job status whose result is a measurement
// document, in the shape statusParts writes it: the small members, then
// "result", then "spans" if there are any, and nothing after the object
// but whitespace. The members before the result and the spans go
// through encoding/json; the result is read where it lies, by
// ReadMeasurement's reader, and st.Result is that stretch of body, not
// a copy. Any other body — a status without a result, a result of
// another kind, members in another order or spelling — it declines (ok
// is false), for the caller to read with json.Unmarshal. What it takes,
// json.Unmarshal reads as the same status.
func ReadMeasuredStatus(body []byte) (st JobStatus, m *Measurement, ok bool) {
	at := resultMember(body)
	if at < 0 {
		return st, nil, false
	}
	// The head, closed, is an object of its own: a copy, so body stays
	// as it came. A result or spans member in it, in any spelling
	// encoding/json matches, would make the head's object differ from
	// the whole body's.
	if json.Unmarshal(append(body[:at:at], '}'), &st) != nil || st.Result != nil || st.Spans != nil {
		return JobStatus{}, nil, false
	}
	start := at + len(resultKey)
	m, n := readMeasurement(body[start:])
	if m == nil {
		return JobStatus{}, nil, false
	}
	st.Result = body[start : start+n]
	rest := bytes.TrimRight(body[start+n:], " \t\r\n")
	if spans, found := bytes.CutPrefix(rest, []byte(spansKey)); found && len(spans) > 0 && spans[len(spans)-1] == '}' {
		if json.Unmarshal(spans[:len(spans)-1], &st.Spans) != nil {
			return JobStatus{}, nil, false
		}
	} else if string(rest) != "}" {
		return JobStatus{}, nil, false
	}
	return st, m, true
}

// resultKey and spansKey are how statusParts introduces the result and
// the spans, and how ReadMeasuredStatus finds them.
const (
	resultKey = `,"result":`
	spansKey  = `,"spans":`
)

// resultMember returns the offset in body of the first resultKey that
// separates two members of the top-level object body holds, or -1 for
// none: a walk over the members that steps over strings and over
// nested objects and arrays. The object must open on a member's name,
// as statusParts writes it, so that the comma follows a member.
func resultMember(body []byte) int {
	if !bytes.HasPrefix(body, []byte(`{"`)) {
		return -1
	}
	depth, inString := 0, false
	for i := 0; i < len(body); i++ {
		c := body[i]
		switch {
		case inString:
			if c == '\\' {
				i++
			} else if c == '"' {
				inString = false
			}
		case c == '"':
			inString = true
		case c == '{' || c == '[':
			depth++
		case c == '}' || c == ']':
			if depth--; depth == 0 {
				return -1
			}
		case c == ',' && depth == 1 && bytes.HasPrefix(body[i:], []byte(resultKey)):
			return i
		}
	}
	return -1
}

// measureReader is a cursor over a measurement document. The first
// thing that is not where ReadMeasurement expects it sets bad and stops
// the cursor there; every read after it reads nothing.
type measureReader struct {
	b   []byte
	i   int
	bad bool
}

// take consumes s if the input continues with it.
func (r *measureReader) take(s string) bool {
	if r.bad || len(r.b)-r.i < len(s) || string(r.b[r.i:r.i+len(s)]) != s {
		return false
	}
	r.i += len(s)
	return true
}

// lit consumes s, which must be next.
func (r *measureReader) lit(s string) {
	if !r.take(s) {
		r.bad = true
	}
}

// num consumes prefix and the number after it.
func (r *measureReader) num(prefix string) int64 {
	r.lit(prefix)
	if r.bad {
		return 0
	}
	v, i := number(r.b, r.i)
	if i < 0 {
		r.bad = true
		return 0
	}
	r.i = i
	return v
}

// number reads the number at b[i:] and returns it and the offset behind
// it, or -1 for none: not negative, in strconv.AppendInt's spelling (no
// sign, no leading zero), and of 18 digits at most, so it cannot
// overflow.
func number(b []byte, i int) (int64, int) {
	n := 0
	var v int64
	for i+n < len(b) && n <= 18 && b[i+n]-'0' < 10 {
		v = v*10 + int64(b[i+n]-'0')
		n++
	}
	if n == 0 || n > 18 || n > 1 && b[i] == '0' {
		return 0, -1
	}
	return v, i + n
}

// hex consumes one lower-case hex digit.
func (r *measureReader) hex() byte {
	if r.bad || r.i == len(r.b) {
		r.bad = true
		return 0
	}
	switch c := r.b[r.i]; {
	case c >= '0' && c <= '9':
		r.i++
		return c - '0'
	case c >= 'a' && c <= 'f':
		r.i++
		return c - 'a' + 10
	}
	r.bad = true
	return 0
}

// name consumes a quoted plain string and returns what is between the
// quotes.
func (r *measureReader) name() string {
	r.lit(`"`)
	n := 0
	for !r.bad && r.i+n < len(r.b) && r.b[r.i+n] != '"' {
		n++
	}
	if r.bad || r.i+n == len(r.b) || !evcache.Plain(r.b[r.i:r.i+n]) {
		r.bad = true
		return ""
	}
	s := string(r.b[r.i : r.i+n])
	r.i += n + 1
	return s
}
