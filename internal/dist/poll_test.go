package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"customfit/internal/core"
	"customfit/internal/dse"
	"customfit/internal/machine"
	"customfit/internal/serve"
)

// statusBodies are job status bodies a coordinator may be sent: what
// serve writes in every state, and shapes encoding/json reads otherwise
// (the seeds of FuzzSplitStatus). measured names the bodies
// serve.ReadMeasuredStatus takes: a finished shard's status in the
// shape serve writes to a coordinator, whatever its strings hold and
// with any whitespace after it. It declines every other.
var statusBodies = []struct {
	name, body string
	measured   bool
}{
	{"queued", `{"id":"j1","kind":"explore","state":"queued"}` + "\n", false},
	{"running", `{"id":"j1","kind":"explore","state":"running","progress":{"Done":3,"Total":40}}` + "\n", false},
	{"done", `{"id":"j1","kind":"explore","state":"done","progress":{"Done":40,"Total":40},"result":{"archs":null,"eval":{"G":[{"Bench":"G"}]}}}` + "\n", false},
	{"done with spans", `{"id":"j1","kind":"explore","state":"done","result":{"archs":[]},"spans":[{"name":"serve.job","attrs":{"id":"j1"}}]}` + "\n", false},
	{"failed", `{"id":"j1","kind":"explore","state":"failed","error":"dse: baseline failed on G"}` + "\n", false},
	{"cancelled", `{"id":"j1","kind":"explore","state":"cancelled","error":"cancelled before starting"}` + "\n", false},
	{"progress naming a result", `{"id":"j1","state":"done","progress":{"note":"\"result\":{","result":1},"result":{"a":1}}`, false},
	{"quotes and braces in strings", `{"id":"a\"}","error":"}\\","state":"done","result":{"k":"\"}]","l":["}"]}}`, false},
	{"result first", `{"result":[1,{"x":"]"}],"id":"j1","state":"done"}`, false},
	{"result alone", `{"result":{"a":{}}}`, false},
	{"result last", `{"id":"j1","state":"done","result":"a string"}`, false},
	{"result null", `{"id":"j1","state":"done","result":null}`, false},
	{"result a number", `{"id":"j1","result":-1.5e+3,"state":"done"}`, false},
	{"result twice", `{"id":"j1","result":{"a":1},"result":{"a":2}}`, false},
	{"result by another case", `{"id":"j1","result":{"a":1},"RESULT":{"a":2}}`, false},
	{"result by escape", `{"id":"j1","\u0072esult":{"a":2}}`, false},
	{"space after the colon", `{"id":"j1","result": {"a":1}}`, false},
	{"space before the comma", `{"id":"j1","result":{"a":1} ,"state":"done"}`, false},
	{"indented", "{\n  \"id\": \"j1\",\n  \"result\": {}\n}", false},
	{"result not JSON", `{"id":"j1","state":"done","result":{"a":tru}}`, false},
	{"torn in the result", `{"id":"j1","state":"done","result":{"a":[1,2`, false},
	{"torn in a string", `{"id":"j1","state":"do`, false},
	{"brackets crossed", `{"id":"j1","progress":[{"result":1]},"result":{}}`, false},
	{"closed twice", `{"id":"j1","result":{}}}`, false},
	{"not an object", `["result",{}]`, false},
	{"empty", ``, false},
	{"a worker's document", `{"id":"j1","kind":"explore","state":"done","result":` + workerDoc + "}\n", false},
	{"a worker's document and spans", `{"id":"j1","state":"done","result":` + workerDoc + `,"spans":[{"name":"serve.job"}]}`, false},
	{"a worker's document first", `{"result":` + workerDoc + `,"id":"j1","state":"done"}`, false},
	{"a worker's document torn", `{"id":"j1","state":"done","result":` + workerDoc[:len(workerDoc)-1], false},
	{"a worker's document, then junk", `{"id":"j1","state":"done","result":` + workerDoc + `x}`, false},
	{"a worker's document twice", `{"result":` + workerDoc + `,"result":` + workerDoc + `}`, false},
	{"done, measured", `{"id":"j1","kind":"explore","state":"done","progress":{"Done":40,"Total":40},"result":` + measuredDoc + "}\n", true},
	{"done, measured, with spans", `{"id":"j1","kind":"explore","state":"done","result":` + measuredDoc + `,"spans":[{"name":"serve.job","attrs":{"id":"j1","n":2}}]}` + "\n", true},
	{"done, nothing measured", `{"id":"j1","kind":"explore","state":"done","result":` + emptyMeasuredDoc + "}\n", true},
	{"progress naming a measured result", `{"id":"j1","state":"done","progress":{"note":"\",\"result\":{","result":1},"result":` + measuredDoc + `}`, true},
	{"quotes and braces in strings, measured", `{"id":"a\"}","error":"},\"result\":\\","state":"done","result":` + measuredDoc + `}`, true},
	{"a measured result, padded", `{"id":"j1","state":"done","result":` + measuredDoc + "}\r\n\t ", true},
	{"a measured result twice", `{"id":"j1","result":` + measuredDoc + `,"result":` + measuredDoc + `}`, false},
	{"a measured result, then junk", `{"id":"j1","state":"done","result":` + measuredDoc + `x}`, false},
	{"a measured result by another case", `{"id":"j1","Result":{"a":1},"result":` + measuredDoc + `}`, false},
	{"a measured result first", `{"result":` + measuredDoc + `,"id":"j1","state":"done"}`, false},
	{"spans before a measured result", `{"id":"j1","spans":[],"result":` + measuredDoc + `}`, false},
	{"a measured result, then a member", `{"id":"j1","result":` + measuredDoc + `,"spans":null,"state":"done"}`, false},
	{"a measured result, spans torn", `{"id":"j1","result":` + measuredDoc + `,"spans":[{"name":"x"}}`, false},
	{"a measured result, unclosed", `{"id":"j1","state":"done","result":` + measuredDoc, false},
}

// workerDoc is a results document in the one shape a worker writes.
const workerDoc = `{"archs":[{"A":1,"M":1,"R":64,"P2":1,"L2":8,"C":1}],"benches":["G"],"cost":[1],` +
	`"eval":{"G":[{"Arch":{"ALUs":1,"MULs":1,"Regs":64,"L2Ports":1,"L2Lat":8,"Clusters":1,"MinMax":false},` +
	`"Bench":"G","Unroll":2,"Cycles":1234,"Time":1234,"Speedup":1,"Spilled":0,"Failed":false}]},` +
	`"stats":{"Runs":4,"Architectures":1,"DesignPoints":1,"Benchmarks":1,"WallTime":5,"PerArch":5,"PerRun":1,` +
	`"Failures":0,"Phases":{"Compile":1,"Simulate":2,"CostModel":3}}}`

// unpricedDoc is workerDoc as a worker of schema 2 answered an unpriced
// shard: no cost list, and Time, Speedup and the pricing time 0. No
// worker a coordinator admits answers it; it stays as hostile input.
const unpricedDoc = `{"archs":[{"A":1,"M":1,"R":64,"P2":1,"L2":8,"C":1}],"benches":["G"],"cost":null,` +
	`"eval":{"G":[{"Arch":{"ALUs":1,"MULs":1,"Regs":64,"L2Ports":1,"L2Lat":8,"Clusters":1,"MinMax":false},` +
	`"Bench":"G","Unroll":2,"Cycles":1234,"Time":0,"Speedup":0,"Spilled":0,"Failed":false}]},` +
	`"stats":{"Runs":4,"Architectures":1,"DesignPoints":1,"Benchmarks":1,"WallTime":5,"PerArch":5,"PerRun":1,` +
	`"Failures":0,"Phases":{"Compile":1,"Simulate":2,"CostModel":0}}}`

// measuredDoc is workerDoc as a worker answers an unpriced shard: the
// measurement document.
const measuredDoc = `{"benches":["G"],"machines":1,"digest":"25abd78ac877e3ff","runs":4,"failures":0,"compile":1,"simulate":2,"cells":[2,1234,0,0]}`

// emptyMeasuredDoc is the measurement document of no benchmarks.
const emptyMeasuredDoc = `{"benches":[],"machines":0,"digest":"cbf29ce484222325","runs":0,"failures":0,"compile":0,"simulate":0,"cells":[]}`

// measurementJSON is a measurement document as encoding/json reads it.
type measurementJSON struct {
	Benches  []string `json:"benches"`
	Machines int      `json:"machines"`
	Digest   string   `json:"digest"`
	Runs     int64    `json:"runs"`
	Failures int64    `json:"failures"`
	Compile  int64    `json:"compile"`
	Simulate int64    `json:"simulate"`
	Cells    []int64  `json:"cells"`
}

// checkMeasurement holds serve.ReadMeasurement to its codec on data:
// what it reads, json.Unmarshal reads alike, and serve.AppendMeasurement
// writes back as data, byte for byte.
func checkMeasurement(t *testing.T, data []byte) {
	t.Helper()
	m, err := serve.ReadMeasurement(data)
	if err != nil {
		return
	}
	var w measurementJSON
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatalf("ReadMeasurement(%q) = %+v; json.Unmarshal says %v", data, m, err)
	}
	cells := make([]int64, 0, 4*len(m.Cells))
	for _, c := range m.Cells {
		failed := int64(0)
		if c.Failed {
			failed = 1
		}
		cells = append(cells, int64(c.Unroll), c.Cycles, int64(c.Spilled), failed)
	}
	got := measurementJSON{Benches: m.Benches, Machines: m.Machines, Digest: fmt.Sprintf("%016x", uint64(m.Digest)),
		Runs: m.Runs, Failures: m.Failures, Compile: int64(m.Compile), Simulate: int64(m.Simulate), Cells: cells}
	if len(w.Benches) == 0 {
		w.Benches = nil
	}
	if len(w.Cells) == 0 {
		w.Cells = nil
	}
	if len(got.Cells) == 0 {
		got.Cells = nil
	}
	if !reflect.DeepEqual(got, w) {
		t.Fatalf("ReadMeasurement(%q) = %+v; json.Unmarshal gives %+v", data, got, w)
	}
	again, err := serve.AppendMeasurement(nil, m)
	if err != nil || !bytes.Equal(again, data) {
		t.Fatalf("ReadMeasurement(%q) re-encodes to %q, %v", data, again, err)
	}
}

// checkStatus holds serve.ReadMeasuredStatus to encoding/json on body:
// what it takes, json.Unmarshal reads as the same status, whose result
// serve.ReadMeasurement reads as the same measurement. It reports
// whether the reader took body.
func checkStatus(t *testing.T, body []byte) bool {
	t.Helper()
	st, m, ok := serve.ReadMeasuredStatus(body)
	if !ok {
		return false
	}
	var want serve.JobStatus
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("ReadMeasuredStatus(%q) = %+v; json.Unmarshal says %v", body, st, err)
	}
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("ReadMeasuredStatus(%q) = %+v; json.Unmarshal gives %+v", body, st, want)
	}
	if wm, err := serve.ReadMeasurement(want.Result); err != nil || !reflect.DeepEqual(m, wm) {
		t.Fatalf("ReadMeasuredStatus(%q) measures %+v; ReadMeasurement of its result %+v, %v", body, m, wm, err)
	}
	return true
}

// TestSplitStatus: a coordinator reads a finished shard off its status
// as a measurement, and refuses a measurement document in any other
// spelling, or a results document, as a retryable failure of the
// attempt. readPoll reads in place exactly the bodies statusBodies marks
// measured, and every body as json.Unmarshal reads it.
func TestSplitStatus(t *testing.T) {
	res, err := dse.FromJSON([]byte(workerDoc))
	if err != nil {
		t.Fatal(err)
	}
	want, err := serve.MeasurementOf(res)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := serve.AppendMeasurement(nil, want)
	if err != nil || string(doc) != measuredDoc {
		t.Fatalf("workerDoc's measurement document is %s, %v; want %s", doc, err, measuredDoc)
	}
	// A results document where a measurement was asked for is the
	// worker's fault, not the run's.
	for _, result := range []string{workerDoc, unpricedDoc} {
		if _, err := serve.ReadMeasurement([]byte(result)); err == nil || isPermanent(err) {
			t.Errorf("a results document read as a measurement: %v", err)
		}
	}

	for _, bad := range []string{
		strings.Replace(measuredDoc, `,"machines"`, ` ,"machines"`, 1),
		strings.Replace(measuredDoc, `"runs":4,"failures":0`, `"failures":0,"runs":4`, 1),
		strings.Replace(measuredDoc, `"runs":4`, `"runs":04`, 1),
		strings.Replace(measuredDoc, `"runs":4`, `"runs":-4`, 1),
		strings.Replace(measuredDoc, `"runs":4`, `"runs":4.0`, 1),
		strings.Replace(measuredDoc, `"digest":"25ab`, `"digest":"25AB`, 1),
		strings.Replace(measuredDoc, `"digest":"25`, `"digest":"5`, 1),
		strings.Replace(measuredDoc, `1234,0,0]`, `1234,0,2]`, 1),
		strings.Replace(measuredDoc, `1234,0,0]`, `1234,0,0,2,1234,0,0]`, 1),
		strings.Replace(measuredDoc, `"machines":1`, `"machines":2`, 1),
		strings.Replace(measuredDoc, `["G"]`, `["\u0047"]`, 1),
		strings.Replace(measuredDoc, `"machines":1`, `"machines":999999999999999999`, 1),
		measuredDoc + "\n",
		measuredDoc[:len(measuredDoc)-1],
		`{}`,
	} {
		if m, err := serve.ReadMeasurement([]byte(bad)); err == nil {
			t.Errorf("ReadMeasurement(%s) = %+v, want an error", bad, m)
		}
		checkMeasurement(t, []byte(bad))
	}
	checkMeasurement(t, []byte(measuredDoc))

	// A finished shard is read in place; every other body goes through
	// encoding/json.
	for _, tc := range statusBodies {
		if got := checkStatus(t, []byte(tc.body)); got != tc.measured {
			t.Errorf("%s: ReadMeasuredStatus takes it: %v, want %v", tc.name, got, tc.measured)
		}
		st, m, err := readPoll([]byte(tc.body))
		var want serve.JobStatus
		werr := json.Unmarshal([]byte(tc.body), &want)
		if (m != nil) != tc.measured || (err == nil) != (werr == nil) || err == nil && !reflect.DeepEqual(st, want) {
			t.Errorf("%s: readPoll = %+v, %v, %v; json.Unmarshal gives %+v, %v", tc.name, st, m != nil, err, want, werr)
		}
	}
}

// FuzzSplitStatus: on arbitrary bytes, serve.ReadMeasuredStatus, the
// coordinator's in-place read of a finished shard's status, declines or
// agrees with json.Unmarshal and with serve.ReadMeasurement on the
// result json.Unmarshal finds; and read as a job status or as the
// result of one, serve.ReadMeasurement refuses or agrees with
// json.Unmarshal, and serve.AppendMeasurement writes what it read back
// as the same bytes. The last seed is the shape every shard answers
// with: the run's four benchmarks on the shard's machines.
func FuzzSplitStatus(f *testing.F) {
	for _, tc := range statusBodies {
		f.Add([]byte(tc.body))
	}
	f.Add([]byte(`{"id":"j1","kind":"explore","state":"done","result":` + unpricedDoc + "}\n"))
	f.Add([]byte(`{"id":"j1","kind":"explore","state":"done","result":` + measuredDoc + "}\n"))
	for _, doc := range []string{
		measuredDoc,
		`{"benches":[],"machines":0,"digest":"cbf29ce484222325","runs":0,"failures":0,"compile":0,"simulate":0,"cells":[]}`,
		`{"benches":["G","DHEF"],"machines":2,"digest":"0123456789abcdef","runs":18,"failures":1,"compile":100200300,"simulate":7,"cells":[2,1234,0,0,0,0,0,1,1,99,12,0,4,100000,300,0]}`,
	} {
		f.Add([]byte(doc))
	}
	four := &serve.Measurement{Benches: []string{"D", "E", "F", "G"}, Machines: 2,
		Digest: serve.EmptyDigest.Add(machine.Baseline).Add(machine.Baseline.WithMinMax()),
		Runs:   40, Failures: 1, Compile: 8123456, Simulate: 90817}
	for i := range 4 * four.Machines {
		four.Cells = append(four.Cells, serve.Cell{Unroll: 1 << (i % 4), Cycles: int64(20000 + 7*i), Spilled: i % 5, Failed: i == 5})
	}
	doc, err := serve.AppendMeasurement(nil, four)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"id":"j1","kind":"explore","state":"done","result":` + string(doc) + "}\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkStatus(t, body)
		checkMeasurement(t, body)
		var st serve.JobStatus
		if json.Unmarshal(body, &st) == nil {
			checkMeasurement(t, st.Result)
		}
	})
}

// TestReadBounded: one buffer of the announced size, and never more
// than the limit, whatever was announced.
func TestReadBounded(t *testing.T) {
	payload := strings.Repeat("x", 4000)
	for _, tc := range []struct {
		name        string
		size, limit int64
		ok          bool
	}{
		{"announced", 4000, 4000, true},
		{"not announced", -1, 4000, true},
		{"announced over the limit", 4001, 4000, false},
		{"sent over the limit", -1, 3999, false},
		{"understated and over the limit", 10, 3999, false},
	} {
		got, err := readBounded(strings.NewReader(payload), tc.size, tc.limit)
		if (err == nil) != tc.ok || tc.ok && string(got) != payload {
			t.Errorf("%s: read %d bytes, %v", tc.name, len(got), err)
		}
		if tc.ok && tc.size > 0 && cap(got) > len(got)+bytes.MinRead {
			t.Errorf("%s: %d bytes read into a buffer of %d", tc.name, len(got), cap(got))
		}
	}
}

// TestOversizedStatusIsRetryable: a worker that answers a poll with a
// Content-Length over the cap gets no buffer of that size; the shard
// fails over to the honest worker and the run merges == local.
func TestOversizedStatusIsRetryable(t *testing.T) {
	col := installCollector(t)
	honest := startWorker(t, serve.Options{Workers: 2, Collector: col})
	liar := newFakeWorker(1)
	liarTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
			w.Header().Set("Content-Length", fmt.Sprint(int64(maxStatusBytes)+1))
			_, _ = io.WriteString(w, `{"id":"stuck","kind":"explore","state":"done","result":`)
			return // short of the promise: the server drops the connection
		}
		liar.ServeHTTP(w, r)
	}))
	t.Cleanup(liarTS.Close)

	opts := fastOpts(liarTS.URL, honest.URL)
	opts.Benchmarks = benchesByName("G")
	opts.Sample = 24
	opts.Width = 32
	opts.hedgeAfter = -1
	got, err := Explore(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Explore(context.Background(), core.ExploreOptions{Benchmarks: benchesByName("G"), Sample: 24, Width: 32})
	if err != nil {
		t.Fatal(err)
	}
	if canonicalJSON(t, got) != canonicalJSON(t, want) {
		t.Error("results after an oversized status diverge from the local run")
	}
	if liar.submits.Load() == 0 || col.Counter("dist.retries").Value() == 0 {
		t.Errorf("liar took %d shards, dist.retries = %d: the cap was not exercised",
			liar.submits.Load(), col.Counter("dist.retries").Value())
	}
}

// pollClock is an http.RoundTripper that notes when each poll of a job
// goes out and how long after the poll before it.
type pollClock struct {
	mu   sync.Mutex
	last map[string]time.Time
	gaps []time.Duration
}

func (c *pollClock) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
		now := time.Now()
		c.mu.Lock()
		if prev, ok := c.last[r.URL.Path]; ok {
			c.gaps = append(c.gaps, now.Sub(prev))
		}
		c.last[r.URL.Path] = now
		c.mu.Unlock()
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestWorkerWithoutWait is version skew one way: a worker from before
// ?wait= (this one, with the query stripped) answers every poll at
// once, so the coordinator must pace itself — never sooner than
// PollInterval after the poll before — and still merge == local.
func TestWorkerWithoutWait(t *testing.T) {
	col := installCollector(t)
	s := serve.New(serve.Options{Workers: 2, Collector: col})
	const interval = 25 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
			r.URL.RawQuery = ""
		}
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	})

	clock := &pollClock{last: map[string]time.Time{}}
	opts := fastOpts(ts.URL)
	opts.PollInterval = interval
	opts.Client = &http.Client{Transport: clock}
	opts.Benchmarks = benchesByName("G")
	opts.Sample = 24
	opts.Width = 32
	got, err := Explore(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Explore(context.Background(), core.ExploreOptions{Benchmarks: benchesByName("G"), Sample: 24, Width: 32})
	if err != nil {
		t.Fatal(err)
	}
	if canonicalJSON(t, got) != canonicalJSON(t, want) {
		t.Error("results from a worker that does not hold polls diverge from the local run")
	}
	if v := col.Counter("serve.polls_held").Value(); v != 0 {
		t.Fatalf("serve.polls_held = %d: the wait parameter got through", v)
	}
	if len(clock.gaps) == 0 {
		t.Fatal("no shard was polled twice: the pacing was not exercised")
	}
	for _, gap := range clock.gaps {
		// Due interval apart; half allows for a goroutine that lost the
		// processor between looking at the clock and sending.
		if gap < interval/2 {
			t.Errorf("polls of one job %v apart, want %v", gap, interval)
		}
	}
}

// TestParentPollLoopReadsThisServer is version skew the other way: the
// poll loop of the commit before ?wait= — no parameter, a sleep between
// polls, the whole envelope through encoding/json — against this
// commit's server, which answers it as it always did, and with the
// measurement of its answer when this commit's loop asks for one.
func TestParentPollLoopReadsThisServer(t *testing.T) {
	installCollector(t)
	w := startWorker(t, serve.Options{Workers: 1})
	ereq := serve.ExploreRequest{Benchmarks: []string{"G"}, Width: 32, Archs: []string{"2 1 64 1 4 1", "4 2 128 2 4 2", "8 2 256 2 2 4"}}
	cl := &client{http: http.DefaultClient, poll: 5 * time.Millisecond}

	jobID, err := cl.submit(context.Background(), w.URL, ereq, "")
	if err != nil {
		t.Fatal(err)
	}
	var st serve.JobStatus
	for deadline := time.Now().Add(2 * time.Minute); !st.State.Terminal(); {
		if time.Now().After(deadline) {
			t.Fatalf("job still %s", st.State)
		}
		time.Sleep(cl.poll)
		resp, err := http.Get(w.URL + "/v1/jobs/" + jobID)
		if err != nil {
			t.Fatal(err)
		}
		st = serve.JobStatus{}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if st.State != serve.StateDone {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}
	old, err := dse.FromJSON(st.Result)
	if err != nil {
		t.Fatal(err)
	}

	want, err := serve.MeasurementOf(old)
	if err != nil {
		t.Fatal(err)
	}

	// The same shard through this commit's loop, as a measurement.
	measured := ereq
	measured.Unpriced, measured.Schema = true, serve.SchemaVersion
	a := &attempt{worker: &workerState{url: w.URL}}
	got, _, err := cl.runShard(context.Background(), a, measured, nil)
	if err != nil {
		t.Fatal(err)
	}
	got.Compile, got.Simulate = want.Compile, want.Simulate
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the parent's poll loop reads %+v off this server, this one %+v", want, got)
	}
}

// TestShardSpansSayWhereTheTimeWent: every dist.shard span carries the
// shard's submit, wait and decode times, its result's size and its poll
// count, and the two histograms have one observation per attempt.
func TestShardSpansSayWhereTheTimeWent(t *testing.T) {
	col := exploreFleetTraced(t)
	shards := 0
	for _, ev := range col.Events() {
		if ev.Name != "dist.shard" {
			continue
		}
		shards++
		attrs := map[string]any{}
		for _, a := range ev.Attrs {
			attrs[a.Key] = a.Value()
		}
		for _, key := range []string{"submit_ms", "wait_ms", "decode_ms"} {
			if v, ok := attrs[key].(float64); !ok || v < 0 || v > float64(ev.Dur/time.Millisecond)+1 {
				t.Errorf("dist.shard %v: %s = %v in a span of %v", attrs["unit"], key, attrs[key], ev.Dur)
			}
		}
		if v, ok := attrs["result_bytes"].(int64); !ok || v <= 0 {
			t.Errorf("dist.shard %v: result_bytes = %v", attrs["unit"], attrs["result_bytes"])
		}
		if v, ok := attrs["polls"].(int64); !ok || v < 1 {
			t.Errorf("dist.shard %v: polls = %v", attrs["unit"], attrs["polls"])
		}
	}
	if shards == 0 {
		t.Fatal("no dist.shard spans")
	}
	for _, name := range []string{"dist.shard_wait_seconds", "dist.shard_decode_seconds"} {
		if n, _, _, _ := col.Histogram(name).Summary(); n != int64(shards) {
			t.Errorf("%s has %d observations for %d shard attempts", name, n, shards)
		}
	}
	if v := col.Counter("serve.polls_held").Value(); v == 0 {
		t.Error("serve.polls_held = 0: no worker held a poll")
	}
}
