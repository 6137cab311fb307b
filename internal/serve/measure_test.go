package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"customfit/internal/dse"
	"customfit/internal/machine"
	"customfit/internal/obs"
)

// recordedMeasurement is the measurement of the recorded D/E/F/G
// document over 40 machines (internal/dse/testdata/results_v1.json).
func recordedMeasurement(t *testing.T) (*dse.Results, *Measurement) {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "dse", "testdata", "results_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := dse.FromJSON(doc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MeasurementOf(res)
	if err != nil {
		t.Fatal(err)
	}
	return res, m
}

// TestMeasuredStatusBytes pins the answer to a schema-3 unpriced shard:
// its document, spelled out for two machines here, and the job status
// that carries it, which writeStatus sends as json.NewEncoder(w).Encode
// of the JobStatus writes it, as TestStatusBytesUnchanged holds every
// other status to.
func TestMeasuredStatusBytes(t *testing.T) {
	archs := []machine.Arch{machine.Baseline, {ALUs: 4, MULs: 2, Regs: 128, L2Ports: 2, L2Lat: 4, Clusters: 2}}
	two := &Measurement{Benches: []string{"G", "DHEF"}, Machines: 2, Digest: EmptyDigest.Add(archs[0]).Add(archs[1]),
		Runs: 18, Failures: 1, Compile: 1200 * time.Microsecond, Simulate: 300,
		Cells: []Cell{{2, 1234, 0, false}, {1, 880, 12, false}, {0, 0, 0, true}, {4, 100000, 3, false}}}
	doc, err := AppendMeasurement(nil, two)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"benches":["G","DHEF"],"machines":2,"digest":"30ba9be9377c9565","runs":18,"failures":1,` +
		`"compile":1200000,"simulate":300,"cells":[2,1234,0,0,1,880,12,0,0,0,0,1,4,100000,3,0]}`
	if string(doc) != want {
		t.Errorf("measurement document\n%s\nwant\n%s", doc, want)
	}
	if cap(doc) > len(doc)+len(doc)/16 {
		t.Errorf("a document of %d bytes in a buffer of %d: sized would copy it", len(doc), cap(doc))
	}

	_, recorded := recordedMeasurement(t)
	big, err := AppendMeasurement(nil, recorded)
	if err != nil {
		t.Fatal(err)
	}
	progress, err := json.Marshal(dse.ProgressInfo{Done: 40, Total: 40, Elapsed: time.Second, RatePerSec: 40})
	if err != nil {
		t.Fatal(err)
	}
	spans := []obs.WireSpan{{Name: "serve.job", TraceID: "0af7651916cd43dd8448eb211c80319c", SpanID: "b7ad6b7169203331", DurUS: 1200}}
	for _, result := range []json.RawMessage{doc, big} {
		for _, st := range []JobStatus{
			{State: StateDone, Progress: progress, Result: result},
			{State: StateDone, Result: result, Spans: spans},
		} {
			st.ID, st.Kind = "j7", "explore"
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(st); err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			writeStatus(rec, st)
			if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
				t.Errorf("writeStatus sends\n%.300s\nEncode wrote\n%.300s", rec.Body, want.Bytes())
			}
			if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(want.Len()) {
				t.Errorf("Content-Length %q for %d bytes", got, want.Len())
			}
		}
	}
}

// TestReadMeasuredStatus: ReadMeasuredStatus reads back what
// writeStatus sends for a finished measured shard — the status, its
// result a stretch of the body, and the measurement — and declines the
// status of any other job, which the coordinator reads with
// json.Unmarshal.
func TestReadMeasuredStatus(t *testing.T) {
	res, m := recordedMeasurement(t)
	doc, err := AppendMeasurement(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	explored, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	progress, err := json.Marshal(dse.ProgressInfo{Done: 40, Total: 40, Elapsed: time.Second, RatePerSec: 40})
	if err != nil {
		t.Fatal(err)
	}
	spans := []obs.WireSpan{{Name: "serve.job", TraceID: "0af7651916cd43dd8448eb211c80319c", SpanID: "b7ad6b7169203331", DurUS: 1200,
		Attrs: map[string]any{"kind": "explore", "note": `"result":{`}}}
	for _, tc := range []struct {
		name string
		st   JobStatus
		ok   bool
	}{
		{"measured", JobStatus{State: StateDone, Progress: progress, Result: doc}, true},
		{"measured, with spans", JobStatus{State: StateDone, Result: doc, Spans: spans}, true},
		{"measured, an error naming a result", JobStatus{State: StateDone, Error: `x,"result":{}`, Result: doc}, true},
		{"a results document", JobStatus{State: StateDone, Progress: progress, Result: explored}, false},
		{"running", JobStatus{State: StateRunning, Progress: progress}, false},
		{"failed", JobStatus{State: StateFailed, Error: "dse: baseline failed", Spans: spans}, false},
	} {
		tc.st.ID, tc.st.Kind = "j7", "explore"
		rec := httptest.NewRecorder()
		writeStatus(rec, tc.st)
		body := rec.Body.Bytes()
		st, got, ok := ReadMeasuredStatus(body)
		if ok != tc.ok {
			t.Errorf("%s: ReadMeasuredStatus takes it: %v, want %v", tc.name, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		var want JobStatus
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st, want) || !reflect.DeepEqual(got, m) {
			t.Errorf("%s: ReadMeasuredStatus reads %+v; json.Unmarshal %+v", tc.name, st, want)
		}
		if i := bytes.Index(body, doc); &st.Result[0] != &body[i] {
			t.Errorf("%s: the result is a copy, not the body's", tc.name)
		}
	}
}

// TestMeasurementOf: a Results reads as the measurement of its
// machines, and a Results whose benchmarks were not measured on one list
// of machines, each evaluation of its own benchmark, does not.
func TestMeasurementOf(t *testing.T) {
	res, m := recordedMeasurement(t)
	digest := EmptyDigest
	for _, a := range res.Archs {
		digest = digest.Add(a)
	}
	if m.Machines != len(res.Archs) || m.Digest != digest || len(m.Cells) != len(res.Benches)*len(res.Archs) ||
		m.Runs != res.Stats.Runs-res.Stats.BaselineRuns || m.Failures != res.Stats.Failures {
		t.Fatalf("measurement of %d machines, digest %x, %d cells, %d runs; want %d, %x, %d, %d",
			m.Machines, m.Digest, len(m.Cells), m.Runs, len(res.Archs), digest, len(res.Benches)*len(res.Archs), res.Stats.Runs)
	}
	for bi, b := range res.Benches {
		for k, ev := range res.Eval[b] {
			want := Cell{Unroll: ev.Unroll, Cycles: ev.Cycles, Spilled: ev.Spilled, Failed: ev.Failed}
			if got := m.Cells[bi*m.Machines+k]; got != want {
				t.Fatalf("%s on %v: cell %+v, want %+v", b, ev.Arch, got, want)
			}
		}
	}
	doc, err := AppendMeasurement(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadMeasurement(doc)
	if err != nil || !reflect.DeepEqual(back, m) {
		t.Errorf("the recorded measurement reads back as %+v, %v", back, err)
	}

	for name, edit := range map[string]func(*dse.Results){
		"a benchmark short":        func(r *dse.Results) { r.Eval["E"] = r.Eval["E"][1:] },
		"another machine":          func(r *dse.Results) { r.Eval["F"][3].Arch.Regs *= 2 },
		"another benchmark's cell": func(r *dse.Results) { r.Eval["G"][0].Bench = "D" },
		"a cancelled cell":         func(r *dse.Results) { r.Eval["D"][5].Cancelled = true },
	} {
		r, _ := recordedMeasurement(t)
		edit(r)
		if _, err := MeasurementOf(r); err == nil {
			t.Errorf("%s: read as a measurement", name)
		}
	}
}

// TestExploreMeasured: an unpriced explore is answered with the
// measurement of the priced explore of the same grid, less what pricing
// adds: over explicit archs that leave out the baseline, it evaluates no
// out-of-grid baseline, so its Runs are the priced job's less its
// BaselineRuns, and its cells are the priced job's. The two are
// different jobs, and /healthz advertises the schema.
func TestExploreMeasured(t *testing.T) {
	s, ts, _ := newTestServer(t, Options{Workers: 1})
	if h := fetchHealth(t, ts.URL); h.Schema != SchemaVersion || SchemaVersion != SchemaMeasured {
		t.Fatalf("healthz advertises schema %d, want %d", h.Schema, SchemaMeasured)
	}

	// Park the single worker, so the submits below are all in flight at
	// once and only the key decides what coalesces.
	release := make(chan struct{})
	blocker, _, err := s.submit("block", "", obs.SpanContext{}, func(ctx context.Context, _ *Job) (json.RawMessage, error) {
		<-release
		return json.RawMessage(`{}`), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	priced := ExploreRequest{Benchmarks: []string{"G", "F"}, Width: 32, Archs: []string{"2 1 64 1 4 1", "4 1 64 1 4 1", "4 2 128 2 4 2"},
		Schema: SchemaMeasured}
	measured := priced
	measured.Unpriced = true
	var m, again, p SubmitResponse
	postJSON(t, ts.URL+"/v1/explore", measured, &m)
	postJSON(t, ts.URL+"/v1/explore", measured, &again)
	postJSON(t, ts.URL+"/v1/explore", priced, &p)
	if m.Coalesced || p.Coalesced || p.ID == m.ID {
		t.Errorf("submits got jobs %s (measured), %s (priced): the forms shared one", m.ID, p.ID)
	}
	if !again.Coalesced || again.ID != m.ID {
		t.Errorf("second measured submit got %+v, want coalesced onto %s", again, m.ID)
	}
	close(release)
	if st := waitTerminal(t, ts.URL, blocker.ID, 10*time.Second); st.State != StateDone {
		t.Fatalf("blocker finished %s", st.State)
	}

	results := map[string]json.RawMessage{}
	for _, id := range []string{m.ID, p.ID} {
		st := waitTerminal(t, ts.URL, id, 120*time.Second)
		if st.State != StateDone {
			t.Fatalf("job %s finished %s (%s)", id, st.State, st.Error)
		}
		results[id] = st.Result
	}
	res, err := dse.FromJSON(results[p.ID])
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BaselineRuns <= 0 {
		t.Errorf("priced BaselineRuns = %d, want > 0 for an out-of-grid baseline", res.Stats.BaselineRuns)
	}
	want, err := MeasurementOf(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadMeasurement(results[m.ID])
	if err != nil {
		t.Fatal(err)
	}
	got.Compile, got.Simulate = want.Compile, want.Simulate
	if !reflect.DeepEqual(got, want) {
		t.Errorf("measured answer %+v, want the priced document's %+v", got, want)
	}
	if got.Runs != res.Stats.Runs-res.Stats.BaselineRuns {
		t.Errorf("measured Runs %d, want the priced job's %d less its %d baseline runs",
			got.Runs, res.Stats.Runs, res.Stats.BaselineRuns)
	}
	if len(got.Cells) != 6 || got.Runs <= 0 {
		t.Errorf("%d cells and %d runs for two benchmarks on three machines", len(got.Cells), got.Runs)
	}
	for i, c := range got.Cells {
		if c.Failed || c.Cycles <= 0 {
			t.Errorf("cell %d: %+v", i, c)
		}
	}
}
