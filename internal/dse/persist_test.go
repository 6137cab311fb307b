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
	ok             bool // FromJSON takes it
}

func (v *docVariant) doc() string { return strings.Replace(smallDoc, v.old, v.new, 1) }

// docVariants are departures from smallDoc, each one replacement away
// from a document JSON wrote: spellings FromJSON must read and
// documents it must refuse.
var docVariants = []docVariant{
	{"as written", "", "", true},
	{"small float", `"Time":100.5`, `"Time":1e-7`, true},
	{"large float", `"Time":100.5`, `"Time":1e+21`, true},
	{"negative zero float", `"Time":100.5`, `"Time":-0`, true},
	{"float out of range", `"Time":100.5`, `"Time":1e999`, false},
	{"leading zero", `"Cycles":100`, `"Cycles":0100`, false},
	{"bare fraction", `"Time":100.5`, `"Time":1.`, false},
	{"negative zero integer", `"Spilled":0`, `"Spilled":-0`, true},
	{"fraction in an integer", `"Cycles":100`, `"Cycles":100.0`, false},
	{"19 digits", `"Cycles":100`, `"Cycles":1000000000000000000`, true},
	{"18 digits", `"Cycles":100`, `"Cycles":-999999999999999999`, true},
	{"cancelled evaluation", `"Failed":false}],"E"`, `"Failed":false,"Cancelled":true}],"E"`, true},
	{"cancelled false", `"Failed":false}],"E"`, `"Failed":false,"Cancelled":false}],"E"`, true},
	{"cancelled count", `"Failures":0`, `"Failures":0,"Cancelled":7`, true},
	{"baseline runs", `"Failures":0`, `"Failures":0,"BaselineRuns":16`, true},
	{"both optional counts", `"Failures":0`, `"Failures":2,"Cancelled":1,"BaselineRuns":16`, true},
	{"optional counts reordered", `"Failures":0`, `"Failures":0,"BaselineRuns":16,"Cancelled":1`, true},
	{"stats before Failures", `,"Failures":0,"Phases":{"Compile":1,"Simulate":2,"CostModel":3}`, ``, true},
	{"eval keys reordered", `"eval":{"D":`, `"eval":{"F":`, true},
	{"eval key repeated", `"E":[`, `"D":[`, true},
	{"inner whitespace", `"cost":[1]`, `"cost": [1]`, true},
	{"trailing newline", `"CostModel":3}}}`, "\"CostModel\":3}}}\n", true},
	{"unknown member", `"cost":[1]`, `"cost":[1],"note":{"a":[1,"}"]}`, true},
	{"null lists", `"benches":["D","E"],"cost":[1]`, `"benches":null,"cost":null`, true},
	{"empty lists", `"benches":["D","E"],"cost":[1]`, `"benches":[],"cost":[]`, true},
	{"null archs", `"archs":[{"A":1,"M":1,"R":64,"P2":1,"L2":8,"C":1}]`, `"archs":null`, true},
	{"empty evaluations", `"D":[{"Arch":{"ALUs":1,"MULs":1,"Regs":64,"L2Ports":1,"L2Lat":8,"Clusters":1,"MinMax":false},"Bench":"D","Unroll":1,"Cycles":100,"Time":100.5,"Speedup":1,"Spilled":0,"Failed":false}]`, `"D":[]`, true},
	{"null evaluations", `"E":[{"Arch":{"ALUs":1,"MULs":1,"Regs":64,"L2Ports":1,"L2Lat":8,"Clusters":1,"MinMax":false},"Bench":"E","Unroll":2,"Cycles":70,"Time":70,"Speedup":1,"Spilled":3,"Failed":false}]`, `"E":null`, true},
	{"another kernel's evaluation", `"Bench":"E"`, `"Bench":"GEF"`, true},
	{"escaped name", `"Bench":"E"`, `"Bench":"\u0045"`, true},
	{"name Marshal escapes", `"benches":["D","E"]`, `"benches":["D","a<b"]`, true},
	{"op catalog", `"CostModel":3}}}`, `"CostModel":3}},"ops":[]}`, true},
	{"arch op mask", `"C":1}]`, `"C":1,"ops":"1"}]`, false},
	{"torn tail", `"Simulate":2,"CostModel":3}}}`, `"Simul`, false},
	{"closed twice", `"CostModel":3}}}`, `"CostModel":3}}}}`, false},
}

// TestResultsDocumentVariants: FromJSON reads what it must and refuses
// the rest, and what it reads JSON writes back as a document that reads
// and writes again as itself. The document as written re-encodes to its
// own bytes.
func TestResultsDocumentVariants(t *testing.T) {
	for i := range docVariants {
		v := &docVariants[i]
		doc := v.doc()
		if v.old != "" && doc == smallDoc {
			t.Fatalf("%s: nothing replaced", v.name)
		}
		res, err := FromJSON([]byte(doc))
		if (err == nil) != v.ok {
			t.Errorf("%s: FromJSON: %v, want it taken %v", v.name, err, v.ok)
		}
		if err != nil {
			continue
		}
		again := rewrite(t, res)
		if v.old == "" && string(again) != smallDoc {
			t.Errorf("%s: re-encodes as\n%s", v.name, again)
		}
	}
}

// rewrite writes res with JSON, reads that back and writes it again,
// failing unless both writes give the same bytes.
func rewrite(t *testing.T, res *Results) []byte {
	t.Helper()
	doc, err := res.JSON()
	if err != nil {
		t.Fatalf("JSON(%+v): %v", res, err)
	}
	back, err := FromJSON(doc)
	if err != nil {
		t.Fatalf("%s does not read back: %v", doc, err)
	}
	again, err := back.JSON()
	if err != nil || !bytes.Equal(again, doc) {
		t.Fatalf("%s\nread back and written again is\n%s, %v", doc, again, err)
	}
	return doc
}

// TestResultsDocumentRefusals: each refusal of JSON and FromJSON, with
// the error it gives. JSON refuses a document that would reload as
// other machines; FromJSON refuses one that names machines it cannot
// build.
func TestResultsDocumentRefusals(t *testing.T) {
	mac, err := machine.ParseOpCatalog([]string{"mac/3/2:mul $0 $1;add %0 $2"})
	if err != nil {
		t.Fatal(err)
	}
	sad, err := machine.ParseOpCatalog([]string{"sad/2/1:sub $0 $1"})
	if err != nil {
		t.Fatal(err)
	}
	base := machine.Baseline
	for _, tc := range []struct {
		name  string
		archs []machine.Arch
		want  string
	}{
		{"min/max machine", []machine.Arch{base, base.WithMinMax()}, "min/max repertoire"},
		{"two op catalogs", []machine.Arch{base.WithOps(mac, 1), base.WithOps(sad, 1)}, "different op catalogs"},
	} {
		r := &Results{Archs: tc.archs}
		if doc, err := r.JSON(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: JSON = %s, %v; want an error containing %q", tc.name, doc, err, tc.want)
		}
	}

	const arch = `{"A":1,"M":1,"R":64,"P2":1,"L2":8,"C":1`
	const catalog = `,"ops":["mac/3/2:mul $0 $1;add %0 $2"]}`
	for _, tc := range []struct{ name, doc, want string }{
		{"op mask without a catalog", `{"archs":[` + arch + `,"ops":"1"}]}`, `arch op mask "1" without a catalog`},
		{"op mask not hex", `{"archs":[` + arch + `,"ops":"x1"}]` + catalog, `bad op mask "x1"`},
		{"op mask past the catalog", `{"archs":[` + arch + `,"ops":"2"}]` + catalog, "exceeds catalog of 1 ops"},
		{"catalog that does not parse", `{"archs":[],"ops":["mac/3/2:"]}`, `fused spec "mac/3/2:": empty step`},
		{"malformed JSON", `{"archs":[` + arch, "dse: decode results: unexpected end of JSON input"},
	} {
		if res, err := FromJSON([]byte(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: FromJSON = %+v, %v; want an error containing %q", tc.name, res, err, tc.want)
		}
	}
}

// TestRecordedResultsDocument pins the bytes of the results document.
// testdata/results_v1.json is Results.JSON() of a D/E/F/G run over forty
// machines: it must decode and re-encode to itself, and its unpriced
// form (a fleet worker's answer to an older coordinator) must
// round-trip. results_full.json at the root was saved before Stats had
// Failures and Phases, and loads as it always did.
func TestRecordedResultsDocument(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "results_v1.json"))
	if err != nil {
		t.Fatal(err)
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
	res.Cost = nil
	for _, evs := range res.Eval {
		for i := range evs {
			evs[i].Time, evs[i].Speedup = 0, 0
		}
	}
	back, err := FromJSON(rewrite(t, res))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, res) {
		t.Fatalf("the unpriced document reads back as %+v", back.Stats)
	}

	full, err := Load(shippedPath)
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.Runs != 26554 || len(full.Archs) != 762 {
		t.Fatalf("results_full.json loaded as %+v, %d machines", full.Stats, len(full.Archs))
	}
}

// FuzzResultsDocument: on arbitrary bytes FromJSON refuses, or reads
// Results that JSON writes and that read and write again as the same
// bytes. On Results built from arbitrary scalars JSON writes
// json.Marshal's bytes of the document, or fails with Marshal (or on a
// MinMax machine, which the document cannot record), and what it wrote
// reads back.
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
		if res, err := FromJSON(doc); err == nil {
			rewrite(t, res)
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
