package dse

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"customfit/internal/machine"
)

// smallDoc is a results document in the shape JSON writes, small enough
// to vary by hand: one machine, two kernels.
const smallDoc = `{"archs":[{"A":1,"M":1,"R":64,"P2":1,"L2":8,"C":1}],"benches":["D","E"],"cost":[1],` +
	`"eval":{"D":[{"Arch":{"ALUs":1,"MULs":1,"Regs":64,"L2Ports":1,"L2Lat":8,"Clusters":1,"MinMax":false},"Bench":"D","Unroll":1,"Cycles":100,"Time":100.5,"Speedup":1,"Spilled":0,"Failed":false}],` +
	`"E":[{"Arch":{"ALUs":1,"MULs":1,"Regs":64,"L2Ports":1,"L2Lat":8,"Clusters":1,"MinMax":false},"Bench":"E","Unroll":2,"Cycles":70,"Time":70,"Speedup":1,"Spilled":3,"Failed":false}]},` +
	`"stats":{"Runs":4,"Architectures":1,"DesignPoints":234,"Benchmarks":2,"WallTime":5,"PerArch":5,"PerRun":1,"Failures":0,"Phases":{"Compile":1,"Simulate":2,"CostModel":3}}}`

type docVariant struct {
	name, old, new string
	fast           bool // parseResults takes it
	valid          bool // encoding/json takes it
}

func (v *docVariant) doc() string { return strings.Replace(smallDoc, v.old, v.new, 1) }

// docVariants are departures from smallDoc: spellings the hand-written
// decoder must decline or encoding/json must refuse, each still one
// replacement away from a document JSON wrote.
var docVariants = []docVariant{
	{"as written", "", "", true, true},
	{"small float", `"Time":100.5`, `"Time":1e-7`, true, true},
	{"large float", `"Time":100.5`, `"Time":1e+21`, true, true},
	{"negative zero float", `"Time":100.5`, `"Time":-0`, true, true},
	{"float out of range", `"Time":100.5`, `"Time":1e999`, false, false},
	{"leading zero", `"Cycles":100`, `"Cycles":0100`, false, false},
	{"bare fraction", `"Time":100.5`, `"Time":1.`, false, false},
	{"negative zero integer", `"Spilled":0`, `"Spilled":-0`, false, true},
	{"fraction in an integer", `"Cycles":100`, `"Cycles":100.0`, false, false},
	{"19 digits", `"Cycles":100`, `"Cycles":1000000000000000000`, false, true},
	{"18 digits", `"Cycles":100`, `"Cycles":-999999999999999999`, true, true},
	{"cancelled evaluation", `"Failed":false}],"E"`, `"Failed":false,"Cancelled":true}],"E"`, true, true},
	{"cancelled false", `"Failed":false}],"E"`, `"Failed":false,"Cancelled":false}],"E"`, false, true},
	{"cancelled count", `"Failures":0`, `"Failures":0,"Cancelled":7`, true, true},
	{"baseline runs", `"Failures":0`, `"Failures":0,"BaselineRuns":16`, true, true},
	{"both optional counts", `"Failures":0`, `"Failures":2,"Cancelled":1,"BaselineRuns":16`, true, true},
	{"optional counts reordered", `"Failures":0`, `"Failures":0,"BaselineRuns":16,"Cancelled":1`, false, true},
	{"stats before Failures", `,"Failures":0,"Phases":{"Compile":1,"Simulate":2,"CostModel":3}`, ``, false, true},
	{"eval keys reordered", `"eval":{"D":`, `"eval":{"F":`, false, true},
	{"eval key repeated", `"E":[`, `"D":[`, false, true},
	{"inner whitespace", `"cost":[1]`, `"cost": [1]`, false, true},
	{"trailing newline", `"CostModel":3}}}`, "\"CostModel\":3}}}\n", false, true},
	{"unknown member", `"cost":[1]`, `"cost":[1],"note":{"a":[1,"}"]}`, false, true},
	{"null lists", `"benches":["D","E"],"cost":[1]`, `"benches":null,"cost":null`, true, true},
	{"empty lists", `"benches":["D","E"],"cost":[1]`, `"benches":[],"cost":[]`, true, true},
	{"null archs", `"archs":[{"A":1,"M":1,"R":64,"P2":1,"L2":8,"C":1}]`, `"archs":null`, true, true},
	{"empty evaluations", `"D":[{"Arch":{"ALUs":1,"MULs":1,"Regs":64,"L2Ports":1,"L2Lat":8,"Clusters":1,"MinMax":false},"Bench":"D","Unroll":1,"Cycles":100,"Time":100.5,"Speedup":1,"Spilled":0,"Failed":false}]`, `"D":[]`, true, true},
	{"null evaluations", `"E":[{"Arch":{"ALUs":1,"MULs":1,"Regs":64,"L2Ports":1,"L2Lat":8,"Clusters":1,"MinMax":false},"Bench":"E","Unroll":2,"Cycles":70,"Time":70,"Speedup":1,"Spilled":3,"Failed":false}]`, `"E":null`, true, true},
	{"another kernel's evaluation", `"Bench":"E"`, `"Bench":"GEF"`, true, true},
	{"escaped name", `"Bench":"E"`, `"Bench":"\u0045"`, false, true},
	{"name Marshal escapes", `"benches":["D","E"]`, `"benches":["D","a<b"]`, false, true},
	{"op catalog", `"CostModel":3}}}`, `"CostModel":3}},"ops":[]}`, false, true},
	{"arch op mask", `"C":1}]`, `"C":1,"ops":"1"}]`, false, true},
	{"torn tail", `"Simulate":2,"CostModel":3}}}`, `"Simul`, false, false},
	{"closed twice", `"CostModel":3}}}`, `"CostModel":3}}}}`, false, false},
}

// TestResultsDocumentVariants: the hand-written decoder takes what JSON
// writes and nothing else, FromJSON takes what encoding/json takes, and
// the two decoders agree wherever both answer.
func TestResultsDocumentVariants(t *testing.T) {
	for i := range docVariants {
		v := &docVariants[i]
		doc := v.doc()
		if v.old != "" && doc == smallDoc {
			t.Fatalf("%s: nothing replaced", v.name)
		}
		var want resultsJSON
		werr := json.Unmarshal([]byte(doc), &want)
		got, ok := parseResults([]byte(doc))
		if ok != v.fast || (werr == nil) != v.valid {
			t.Errorf("%s: parseResults takes it: %v, want %v; encoding/json: %v, want valid %v", v.name, ok, v.fast, werr, v.valid)
		}
		if ok && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: parseResults reads\n%+v\nencoding/json\n%+v", v.name, got, want)
		}
		// Valid JSON is not yet a valid document (an op mask needs its
		// catalog), but what the fast path takes is.
		if _, err := FromJSON([]byte(doc)); err == nil && !v.valid || err != nil && v.fast {
			t.Errorf("%s: FromJSON: %v, want valid %v", v.name, err, v.valid)
		}
	}
}

// TestRecordedResultsDocument pins the bytes of the results document.
// testdata/results_v1.json is Results.JSON() of a D/E/F/G run over forty
// machines, written by the commit before the hand-written codec: it
// must take the fast path, decode to encoding/json's reading and
// re-encode to itself. results_full.json at the root was saved before
// Stats had Failures and Phases: the fast path declines it, and it
// loads as it always did.
func TestRecordedResultsDocument(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "results_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want resultsJSON
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got, ok := parseResults(data)
	if !ok {
		t.Fatal("parseResults declines the recorded document")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("parseResults and encoding/json read the recorded document differently")
	}
	res, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BaselineRuns != 16 || len(res.Archs) != 40 || len(res.Eval["G"]) != 40 {
		t.Fatalf("recorded document decoded to %+v, %d machines", res.Stats, len(res.Archs))
	}
	again, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("the recorded document does not re-encode to itself")
	}
	if slack := cap(again) - len(again); slack < 0 || slack > len(again)/16 {
		t.Errorf("a %d-byte document was encoded into a %d-byte buffer", len(again), cap(again))
	}
	// The same machines unpriced, as a fleet worker answers a shard.
	res.Cost = nil
	for _, evs := range res.Eval {
		for i := range evs {
			evs[i].Time, evs[i].Speedup = 0, 0
		}
	}
	unpriced, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if slack := cap(unpriced) - len(unpriced); slack < 0 || slack > len(unpriced)/16 {
		t.Errorf("a %d-byte unpriced document was encoded into a %d-byte buffer", len(unpriced), cap(unpriced))
	}

	full, err := os.ReadFile(shippedPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := parseResults(full); ok {
		t.Fatal("parseResults takes a document whose stats it does not know")
	}
	var old resultsJSON
	if err := json.Unmarshal(full, &old); err != nil {
		t.Fatal(err)
	}
	res, err = FromJSON(full)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Eval, old.Eval) || res.Stats != old.Stats || res.Stats.Runs != 26554 || len(res.Archs) != 762 {
		t.Fatalf("results_full.json loaded as %+v, %d machines", res.Stats, len(res.Archs))
	}
}

// FuzzResultsDocument holds the hand-written half of the results codec
// to encoding/json, which it only abbreviates. On arbitrary bytes
// parseResults either declines — the document is then decoded by
// encoding/json, as it always was — or returns exactly what
// json.Unmarshal returns, and never accepts a document json.Unmarshal
// rejects. On Results built from arbitrary scalars appendResults writes
// json.Marshal's bytes or declines, JSON writes them or fails with
// Marshal (or on a MinMax machine, which the document cannot record),
// and what was written reads back.
func FuzzResultsDocument(f *testing.F) {
	add := func(doc []byte) {
		f.Add(doc, "D", 4, int64(1289), 1289.25, 1.5, false, false, int64(654), int64(0), int64(16), uint8(0))
	}
	// The first three machines of the recorded D/E/F/G document: real
	// values, and short enough that the mutator gets somewhere.
	recorded, err := os.ReadFile(filepath.Join("testdata", "results_v1.json"))
	if err != nil {
		f.Fatal(err)
	}
	var head resultsJSON
	if err := json.Unmarshal(recorded, &head); err != nil {
		f.Fatal(err)
	}
	head.Archs, head.Cost = head.Archs[:3], head.Cost[:3]
	for name, evs := range head.Eval {
		head.Eval[name] = evs[:3]
	}
	real, err := json.Marshal(head)
	if err != nil {
		f.Fatal(err)
	}
	add(real)
	// The same machines as a fleet worker answers an unpriced shard: no
	// cost list, and every Time and Speedup 0.
	head.Cost, head.Stats.BaselineRuns, head.Stats.Phases.CostModel = nil, 0, 0
	for _, evs := range head.Eval {
		for i := range evs {
			evs[i].Time, evs[i].Speedup = 0, 0
		}
	}
	unpriced, err := json.Marshal(head)
	if err != nil {
		f.Fatal(err)
	}
	add(unpriced)
	for i := range docVariants {
		add([]byte(docVariants[i].doc()))
	}
	f.Add([]byte(nil), "a<b & \"c\"\\", -3, int64(-1)<<63, 1e-7, 1e21, true, true, int64(1)<<62, int64(-5), int64(0), uint8(0xff))
	f.Add([]byte(nil), "café \xff\x00", 0, int64(0), math.Copysign(0, -1), 123456789e-15, false, true, int64(0), int64(9), int64(-1), uint8(0x55))
	f.Add([]byte(nil), "G", 1<<40, int64(999999999999999999), math.Inf(1), math.NaN(), false, false, int64(1), int64(0), int64(0), uint8(0))

	f.Fuzz(func(t *testing.T, doc []byte, name string, n int, cycles int64, tm, speedup float64,
		failed, cancelled bool, runs, nCancelled, baselineRuns int64, nils uint8) {
		var want resultsJSON
		werr := json.Unmarshal(doc, &want)
		got, ok := parseResults(doc)
		if ok && (werr != nil || !reflect.DeepEqual(got, want)) {
			t.Fatalf("parseResults(%q) = %+v; json.Unmarshal gives %+v, %v", doc, got, want, werr)
		}
		if ok {
			// DeepEqual takes -0 for 0; Marshal does not.
			a, _ := json.Marshal(got)
			b, _ := json.Marshal(want)
			if !bytes.Equal(a, b) {
				t.Fatalf("parseResults(%q) re-encodes as %s; json.Unmarshal's reading as %s", doc, a, b)
			}
		}
		if _, err := FromJSON(doc); werr != nil && err == nil {
			t.Fatalf("FromJSON takes %q; json.Unmarshal says %v", doc, werr)
		}

		arch := machine.Arch{ALUs: n, MULs: n / 2, Regs: n * 16, L2Ports: 1, L2Lat: -n, Clusters: 1, MinMax: failed}
		res := &Results{
			Archs:   []machine.Arch{arch, machine.Baseline},
			Benches: []string{name, "E"},
			Cost:    []float64{tm, speedup},
			Eval: map[string][]Evaluation{
				name: {
					{Arch: arch, Bench: name, Unroll: n, Cycles: cycles, Time: tm, Speedup: speedup, Spilled: -n, Failed: failed, Cancelled: cancelled},
					{Arch: machine.Baseline, Bench: "E", Cycles: runs, Time: speedup, Speedup: tm, Failed: !failed},
				},
				"E": {},
				"A": nil,
			},
			Stats: Stats{
				Runs: runs, Architectures: n, DesignPoints: 234, Benchmarks: 2,
				WallTime: time.Duration(cycles), PerArch: time.Duration(runs), PerRun: -1,
				Failures: nCancelled, Cancelled: nCancelled, BaselineRuns: baselineRuns,
				Phases: PhaseTimes{Compile: time.Duration(cycles), Simulate: 1, CostModel: time.Duration(n)},
			},
		}
		if nils&1 != 0 {
			res.Archs = nil
		}
		if nils&2 != 0 {
			res.Benches = nil
		}
		if nils&4 != 0 {
			res.Cost = nil
		}
		if nils&8 != 0 {
			res.Eval = nil
		}
		out := resultsJSON{Benches: res.Benches, Cost: res.Cost, Eval: res.Eval, Stats: res.Stats}
		for _, a := range res.Archs {
			out.Archs = append(out.Archs, archJSON{A: a.ALUs, M: a.MULs, R: a.Regs, P2: a.L2Ports, L2: a.L2Lat, C: a.Clusters})
		}
		wantDoc, merr := json.Marshal(out)
		gotDoc, ok := appendResults([]byte("kept"), &out)
		if ok && (merr != nil || string(gotDoc) != "kept"+string(wantDoc)) {
			t.Fatalf("appendResults(%+v) =\n%s\njson.Marshal gives\n%s, %v", out, gotDoc, wantDoc, merr)
		}
		// Declined for a reason only: a name to escape or a float not to
		// spell, somewhere the document shows it.
		named, costed := nils&2 == 0 || nils&8 == 0, nils&4 == 0 || nils&8 == 0
		if plain := (!named || plainString(name)) && (!costed || finite(tm) && finite(speedup)); ok != plain {
			t.Fatalf("appendResults takes %+v: %v, want %v", out, ok, plain)
		}
		viaJSON, err := res.JSON()
		if res.Archs != nil && arch.MinMax {
			// The archs list has no min/max flag: JSON refuses the
			// machine rather than write a document that reloads as
			// another. Without the flag it writes Marshal's bytes.
			if err == nil {
				t.Fatalf("JSON(%+v) encodes %v, whose min/max repertoire the document cannot record", out, arch)
			}
			res.Archs[0].MinMax = false
			viaJSON, err = res.JSON()
		}
		if (err == nil) != (merr == nil) || !bytes.Equal(viaJSON, wantDoc) {
			t.Fatalf("JSON(%+v) =\n%s, %v\njson.Marshal gives\n%s, %v", out, viaJSON, err, wantDoc, merr)
		}
		if merr != nil {
			return
		}
		back, err := FromJSON(wantDoc)
		if err != nil {
			t.Fatalf("%s does not read back: %v", wantDoc, err)
		}
		// Marshal replaces what is not UTF-8, so such a name comes back
		// another.
		if again, err := back.JSON(); err != nil || utf8.ValidString(name) && !bytes.Equal(again, wantDoc) {
			t.Fatalf("%s\nread back and written again is\n%s, %v", wantDoc, again, err)
		}
	})
}
