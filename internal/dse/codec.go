package dse

import (
	"bytes"
	"math"
	"sort"
	"strconv"
	"time"

	"customfit/internal/machine"
)

// The hand-written half of the results codec (see resultsJSON in
// persist.go for the rule): appendResults writes json.Marshal's bytes
// for an op-free document, parseResults reads exactly those bytes. Each
// declines whatever it does not spell itself, and the caller falls back
// to encoding/json for the whole document; FuzzResultsDocument holds the
// two encoders and the two decoders equal.

// What the lists of a full-space document come to per element, commas
// included and rounded up — an archs element, a cost, an evaluation, an
// evaluation whose Time and Speedup are 0 — and an allowance for
// everything outside the lists.
const (
	archBytes         = 48
	costBytes         = 20
	evalBytes         = 212
	unpricedEvalBytes = 180
	shellBytes        = 512
)

// encodedSize estimates the length of out's encoding: three to five
// percent high on the documents a run produces, so that the buffer
// neither grows nor is worth trimming (serve's sized). A document
// without costs is taken for unpriced (Results.Price sets them all). An
// estimate, not a bound: a document that outgrows it costs append a
// copy.
func encodedSize(out *resultsJSON) int {
	n := shellBytes + archBytes*len(out.Archs) + costBytes*len(out.Cost)
	perEval := evalBytes
	if out.Cost == nil {
		perEval = unpricedEvalBytes
	}
	for _, evs := range out.Eval {
		n += perEval * len(evs)
	}
	return n
}

// plainString reports whether JSON spells s as itself between quotes:
// printable ASCII with none of the five characters json.Marshal escapes.
func plainString[S string | []byte](s S) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// appendFloat spells a finite f as encoding/json does: 'f', or 'e' below
// 1e-6 and from 1e21, with a one-digit negative exponent unpadded.
func appendFloat(dst []byte, f float64) []byte {
	if f == 0 && !math.Signbit(f) {
		// Every Time and Speedup of an unpriced document.
		return append(dst, '0')
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

func appendInt(dst []byte, name string, v int64) []byte {
	return strconv.AppendInt(append(dst, name...), v, 10)
}

func appendBool(dst []byte, name string, v bool) []byte {
	return strconv.AppendBool(append(dst, name...), v)
}

// appendResults appends out's document to dst: byte for byte what
// json.Marshal makes of it. It declines (ok false, dst's contents then
// unspecified) a document with custom ops, a name JSON would escape or a
// float JSON cannot spell.
func appendResults(dst []byte, out *resultsJSON) (_ []byte, ok bool) {
	if len(out.Ops) > 0 {
		return dst, false
	}
	dst = append(dst, `{"archs":`...)
	if out.Archs == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, a := range out.Archs {
			if a.Ops != "" {
				return dst, false
			}
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendInt(dst, `{"A":`, int64(a.A))
			dst = appendInt(dst, `,"M":`, int64(a.M))
			dst = appendInt(dst, `,"R":`, int64(a.R))
			dst = appendInt(dst, `,"P2":`, int64(a.P2))
			dst = appendInt(dst, `,"L2":`, int64(a.L2))
			dst = appendInt(dst, `,"C":`, int64(a.C))
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}

	dst = append(dst, `,"benches":`...)
	if out.Benches == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, b := range out.Benches {
			if !plainString(b) {
				return dst, false
			}
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(append(append(dst, '"'), b...), '"')
		}
		dst = append(dst, ']')
	}

	dst = append(dst, `,"cost":`...)
	if out.Cost == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, c := range out.Cost {
			if !finite(c) {
				return dst, false
			}
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendFloat(dst, c)
		}
		dst = append(dst, ']')
	}

	dst = append(dst, `,"eval":`...)
	if out.Eval == nil {
		dst = append(dst, "null"...)
	} else {
		names := make([]string, 0, len(out.Eval))
		for name := range out.Eval {
			names = append(names, name)
		}
		sort.Strings(names)
		dst = append(dst, '{')
		for i, name := range names {
			if !plainString(name) {
				return dst, false
			}
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(append(append(dst, '"'), name...), `":`...)
			if dst, ok = appendEvals(dst, out.Eval[name]); !ok {
				return dst, false
			}
		}
		dst = append(dst, '}')
	}

	s := &out.Stats
	dst = appendInt(dst, `,"stats":{"Runs":`, s.Runs)
	dst = appendInt(dst, `,"Architectures":`, int64(s.Architectures))
	dst = appendInt(dst, `,"DesignPoints":`, int64(s.DesignPoints))
	dst = appendInt(dst, `,"Benchmarks":`, int64(s.Benchmarks))
	dst = appendInt(dst, `,"WallTime":`, int64(s.WallTime))
	dst = appendInt(dst, `,"PerArch":`, int64(s.PerArch))
	dst = appendInt(dst, `,"PerRun":`, int64(s.PerRun))
	dst = appendInt(dst, `,"Failures":`, s.Failures)
	if s.Cancelled != 0 {
		dst = appendInt(dst, `,"Cancelled":`, s.Cancelled)
	}
	if s.BaselineRuns != 0 {
		dst = appendInt(dst, `,"BaselineRuns":`, s.BaselineRuns)
	}
	dst = appendInt(dst, `,"Phases":{"Compile":`, int64(s.Phases.Compile))
	dst = appendInt(dst, `,"Simulate":`, int64(s.Phases.Simulate))
	dst = appendInt(dst, `,"CostModel":`, int64(s.Phases.CostModel))
	return append(dst, "}}}"...), true
}

// appendEvals appends one benchmark's evaluations, null for a nil slice.
func appendEvals(dst []byte, evs []Evaluation) ([]byte, bool) {
	if evs == nil {
		return append(dst, "null"...), true
	}
	dst = append(dst, '[')
	for i := range evs {
		ev := &evs[i]
		if ev.Arch.Ops != (machine.OpConfig{}) || !plainString(ev.Bench) || !finite(ev.Time) || !finite(ev.Speedup) {
			return dst, false
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendInt(dst, `{"Arch":{"ALUs":`, int64(ev.Arch.ALUs))
		dst = appendInt(dst, `,"MULs":`, int64(ev.Arch.MULs))
		dst = appendInt(dst, `,"Regs":`, int64(ev.Arch.Regs))
		dst = appendInt(dst, `,"L2Ports":`, int64(ev.Arch.L2Ports))
		dst = appendInt(dst, `,"L2Lat":`, int64(ev.Arch.L2Lat))
		dst = appendInt(dst, `,"Clusters":`, int64(ev.Arch.Clusters))
		dst = appendBool(dst, `,"MinMax":`, ev.Arch.MinMax)
		dst = append(append(append(dst, `},"Bench":"`...), ev.Bench...), '"')
		dst = appendInt(dst, `,"Unroll":`, int64(ev.Unroll))
		dst = appendInt(dst, `,"Cycles":`, ev.Cycles)
		dst = appendFloat(append(dst, `,"Time":`...), ev.Time)
		dst = appendFloat(append(dst, `,"Speedup":`...), ev.Speedup)
		dst = appendInt(dst, `,"Spilled":`, int64(ev.Spilled))
		dst = appendBool(dst, `,"Failed":`, ev.Failed)
		if ev.Cancelled {
			dst = append(dst, `,"Cancelled":true`...)
		}
		dst = append(dst, '}')
	}
	return append(dst, ']'), true
}

// docReader is a cursor over a results document. The first thing that
// is not where parseResults expects it sets bad, after which every
// method reads nothing; the caller looks at bad once, at the end.
type docReader struct {
	b   []byte
	i   int
	bad bool
}

// has reports whether the input continues with s, without consuming it.
func (d *docReader) has(s string) bool {
	return !d.bad && len(d.b)-d.i >= len(s) && string(d.b[d.i:d.i+len(s)]) == s
}

// take consumes s if the input continues with it.
func (d *docReader) take(s string) bool {
	if !d.has(s) {
		return false
	}
	d.i += len(s)
	return true
}

// lit consumes s, which must be next.
func (d *docReader) lit(s string) {
	if !d.take(s) {
		d.bad = true
	}
}

// open and next walk a JSON array: open consumes '[' and reports whether
// an element follows (for "[]" it consumes both and says no); next
// consumes the ',' before another element, or the closing ']'.
func (d *docReader) open() bool {
	d.lit("[")
	return !d.bad && !d.take("]")
}

func (d *docReader) next() bool {
	if d.take(",") {
		return true
	}
	d.lit("]")
	return false
}

// digits returns the length of the run of decimal digits at offset i.
func (d *docReader) digits(i int) int {
	n := 0
	for i+n < len(d.b) && d.b[i+n] >= '0' && d.b[i+n] <= '9' {
		n++
	}
	return n
}

// int consumes name and the integer after it. The integer is in the one
// spelling strconv.AppendInt gives it — no sign but '-', no leading
// zero, no "-0" — and short enough (18 digits) that it cannot overflow.
// A fraction or an exponent after it fails the literal that must follow
// every number of the document.
func (d *docReader) int(name string) int64 {
	d.lit(name)
	if d.bad {
		return 0
	}
	i := d.i
	neg := i < len(d.b) && d.b[i] == '-'
	if neg {
		i++
	}
	n := d.digits(i)
	if n == 0 || n > 18 || (d.b[i] == '0' && (n > 1 || neg)) {
		d.bad = true
		return 0
	}
	var v int64
	for _, c := range d.b[i : i+n] {
		v = v*10 + int64(c-'0')
	}
	d.i = i + n
	if neg {
		v = -v
	}
	return v
}

// smallInt is int for a field of Go type int.
func (d *docReader) smallInt(name string) int {
	v := d.int(name)
	if int64(int(v)) != v {
		d.bad = true
	}
	return int(v)
}

// float consumes a JSON number — the grammar exactly, which is narrower
// than strconv.ParseFloat's — and converts it as encoding/json does.
func (d *docReader) float() float64 {
	if d.bad {
		return 0
	}
	i := d.i
	if i < len(d.b) && d.b[i] == '-' {
		i++
	}
	n := d.digits(i)
	if n == 0 || (n > 1 && d.b[i] == '0') {
		d.bad = true
		return 0
	}
	i += n
	if i < len(d.b) && d.b[i] == '.' {
		if n = d.digits(i + 1); n == 0 {
			d.bad = true
			return 0
		}
		i += 1 + n
	}
	if i < len(d.b) && (d.b[i] == 'e' || d.b[i] == 'E') {
		i++
		if i < len(d.b) && (d.b[i] == '+' || d.b[i] == '-') {
			i++
		}
		if n = d.digits(i); n == 0 {
			d.bad = true
			return 0
		}
		i += n
	}
	if i == d.i+1 && d.b[d.i] == '0' {
		// Every Time and Speedup of an unpriced document.
		d.i = i
		return 0
	}
	f, err := strconv.ParseFloat(string(d.b[d.i:i]), 64)
	if err != nil {
		d.bad = true
		return 0
	}
	d.i = i
	return f
}

// bool consumes name and the literal after it.
func (d *docReader) bool(name string) bool {
	d.lit(name)
	if d.take("true") {
		return true
	}
	d.lit("false")
	return false
}

// str consumes a quoted plain string and returns the bytes between the
// quotes, which alias the input.
func (d *docReader) str() []byte {
	d.lit(`"`)
	if d.bad {
		return nil
	}
	n := 0
	for d.i+n < len(d.b) && d.b[d.i+n] != '"' {
		n++
	}
	s := d.b[d.i : d.i+n]
	if d.i+n == len(d.b) || !plainString(s) {
		d.bad = true
		return nil
	}
	d.i += n + 1
	return s
}

// parseResults reads a document in appendResults' shape. It declines (ok
// false) anything else, including documents encoding/json would accept;
// what it accepts it decodes to what json.Unmarshal decodes.
func parseResults(data []byte) (in resultsJSON, ok bool) {
	d := &docReader{b: data}
	d.lit(`{"archs":`)
	if !d.take("null") {
		// No element holds a ']', so the first one ends the list, and
		// the shortest element with its comma is 42 bytes: that bounds
		// the count, by the bytes that are there.
		list := max(bytes.IndexByte(data[d.i:], ']'), 0)
		in.Archs = make([]archJSON, 0, list/42+1)
		for more := d.open(); more; more = d.next() {
			var a archJSON
			a.A = d.smallInt(`{"A":`)
			a.M = d.smallInt(`,"M":`)
			a.R = d.smallInt(`,"R":`)
			a.P2 = d.smallInt(`,"P2":`)
			a.L2 = d.smallInt(`,"L2":`)
			a.C = d.smallInt(`,"C":`)
			d.lit("}")
			in.Archs = append(in.Archs, a)
		}
	}

	d.lit(`,"benches":`)
	if !d.take("null") {
		in.Benches = []string{}
		for more := d.open(); more; more = d.next() {
			in.Benches = append(in.Benches, string(d.str()))
		}
	}

	d.lit(`,"cost":`)
	if !d.take("null") {
		in.Cost = make([]float64, 0, len(in.Archs))
		for more := d.open(); more; more = d.next() {
			in.Cost = append(in.Cost, d.float())
		}
	}

	d.lit(`,"eval":`)
	if !d.take("null") {
		in.Eval = make(map[string][]Evaluation, len(in.Benches))
		d.lit("{")
		prev := ""
		for more := !d.bad && !d.take("}"); more; {
			name := string(d.str())
			// Marshal writes each key once, in order.
			if len(in.Eval) > 0 && name <= prev {
				d.bad = true
			}
			d.lit(":")
			in.Eval[name] = d.evals(name, len(in.Archs))
			prev = name
			if more = d.take(","); !more {
				d.lit("}")
			}
		}
	}

	s := &in.Stats
	s.Runs = d.int(`,"stats":{"Runs":`)
	s.Architectures = d.smallInt(`,"Architectures":`)
	s.DesignPoints = d.smallInt(`,"DesignPoints":`)
	s.Benchmarks = d.smallInt(`,"Benchmarks":`)
	s.WallTime = time.Duration(d.int(`,"WallTime":`))
	s.PerArch = time.Duration(d.int(`,"PerArch":`))
	s.PerRun = time.Duration(d.int(`,"PerRun":`))
	s.Failures = d.int(`,"Failures":`)
	if d.has(`,"Cancelled":`) {
		s.Cancelled = d.int(`,"Cancelled":`)
	}
	if d.has(`,"BaselineRuns":`) {
		s.BaselineRuns = d.int(`,"BaselineRuns":`)
	}
	s.Phases.Compile = time.Duration(d.int(`,"Phases":{"Compile":`))
	s.Phases.Simulate = time.Duration(d.int(`,"Simulate":`))
	s.Phases.CostModel = time.Duration(d.int(`,"CostModel":`))
	d.lit("}}}")
	if d.bad || d.i != len(data) {
		return resultsJSON{}, false
	}
	return in, true
}

// evals reads one benchmark's evaluations: null, or a list that a run
// makes hint long. name is the benchmark's key in the document, which
// is also what nearly every Bench in the list says: those share its
// string.
func (d *docReader) evals(name string, hint int) []Evaluation {
	if d.take("null") {
		return nil
	}
	if !d.open() {
		return []Evaluation{}
	}
	// The shortest element is over 150 bytes, which bounds the count by
	// the bytes that are left.
	evs := make([]Evaluation, 0, min(hint, (len(d.b)-d.i)/150+1))
	for more := true; more; more = d.next() {
		var ev Evaluation
		ev.Arch.ALUs = d.smallInt(`{"Arch":{"ALUs":`)
		ev.Arch.MULs = d.smallInt(`,"MULs":`)
		ev.Arch.Regs = d.smallInt(`,"Regs":`)
		ev.Arch.L2Ports = d.smallInt(`,"L2Ports":`)
		ev.Arch.L2Lat = d.smallInt(`,"L2Lat":`)
		ev.Arch.Clusters = d.smallInt(`,"Clusters":`)
		ev.Arch.MinMax = d.bool(`,"MinMax":`)
		d.lit(`},"Bench":`)
		if b := d.str(); string(b) == name {
			ev.Bench = name
		} else {
			ev.Bench = string(b)
		}
		ev.Unroll = d.smallInt(`,"Unroll":`)
		ev.Cycles = d.int(`,"Cycles":`)
		d.lit(`,"Time":`)
		ev.Time = d.float()
		d.lit(`,"Speedup":`)
		ev.Speedup = d.float()
		ev.Spilled = d.smallInt(`,"Spilled":`)
		ev.Failed = d.bool(`,"Failed":`)
		ev.Cancelled = d.take(`,"Cancelled":true`)
		d.lit("}")
		evs = append(evs, ev)
	}
	return evs
}
