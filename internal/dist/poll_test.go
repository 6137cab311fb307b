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
	"customfit/internal/serve"
)

// statusBodies are job status bodies a coordinator may be sent: what
// serve writes in every state, and shapes the splitter must leave to
// encoding/json or split without being fooled.
var statusBodies = []struct {
	name, body string
	split      bool // splitStatus takes it
}{
	{"queued", `{"id":"j1","kind":"explore","state":"queued"}` + "\n", false},
	{"running", `{"id":"j1","kind":"explore","state":"running","progress":{"Done":3,"Total":40}}` + "\n", false},
	{"done", `{"id":"j1","kind":"explore","state":"done","progress":{"Done":40,"Total":40},"result":{"archs":null,"eval":{"G":[{"Bench":"G"}]}}}` + "\n", true},
	{"done with spans", `{"id":"j1","kind":"explore","state":"done","result":{"archs":[]},"spans":[{"name":"serve.job","attrs":{"id":"j1"}}]}` + "\n", true},
	{"failed", `{"id":"j1","kind":"explore","state":"failed","error":"dse: baseline failed on G"}` + "\n", false},
	{"cancelled", `{"id":"j1","kind":"explore","state":"cancelled","error":"cancelled before starting"}` + "\n", false},
	{"progress naming a result", `{"id":"j1","state":"done","progress":{"note":"\"result\":{","result":1},"result":{"a":1}}`, true},
	{"quotes and braces in strings", `{"id":"a\"}","error":"}\\","state":"done","result":{"k":"\"}]","l":["}"]}}`, true},
	{"result first", `{"result":[1,{"x":"]"}],"id":"j1","state":"done"}`, true},
	{"result alone", `{"result":{"a":{}}}`, true},
	{"result last", `{"id":"j1","state":"done","result":"a string"}`, true},
	{"result null", `{"id":"j1","state":"done","result":null}`, true},
	{"result a number", `{"id":"j1","result":-1.5e+3,"state":"done"}`, true},
	{"result twice", `{"id":"j1","result":{"a":1},"result":{"a":2}}`, true},
	{"result by another case", `{"id":"j1","result":{"a":1},"RESULT":{"a":2}}`, true},
	{"result by escape", `{"id":"j1","\u0072esult":{"a":2}}`, false},
	{"space after the colon", `{"id":"j1","result": {"a":1}}`, false},
	{"space before the comma", `{"id":"j1","result":{"a":1} ,"state":"done"}`, false},
	{"indented", "{\n  \"id\": \"j1\",\n  \"result\": {}\n}", false},
	{"result not JSON", `{"id":"j1","state":"done","result":{"a":tru}}`, true},
	{"torn in the result", `{"id":"j1","state":"done","result":{"a":[1,2`, false},
	{"torn in a string", `{"id":"j1","state":"do`, false},
	{"brackets crossed", `{"id":"j1","progress":[{"result":1]},"result":{}}`, true},
	{"closed twice", `{"id":"j1","result":{}}}`, true},
	{"not an object", `["result",{}]`, false},
	{"empty", ``, false},
	{"a worker's document", `{"id":"j1","kind":"explore","state":"done","result":` + workerDoc + "}\n", true},
	{"a worker's document and spans", `{"id":"j1","state":"done","result":` + workerDoc + `,"spans":[{"name":"serve.job"}]}`, true},
	{"a worker's document first", `{"result":` + workerDoc + `,"id":"j1","state":"done"}`, true},
	{"a worker's document torn", `{"id":"j1","state":"done","result":` + workerDoc[:len(workerDoc)-1], false},
	{"a worker's document, then junk", `{"id":"j1","state":"done","result":` + workerDoc + `x}`, false},
	{"a worker's document twice", `{"result":` + workerDoc + `,"result":` + workerDoc + `}`, true},
}

// workerDoc is a results document in the one shape a worker writes:
// dse.ReadResults reads it where it lies.
const workerDoc = `{"archs":[{"A":1,"M":1,"R":64,"P2":1,"L2":8,"C":1}],"benches":["G"],"cost":[1],` +
	`"eval":{"G":[{"Arch":{"ALUs":1,"MULs":1,"Regs":64,"L2Ports":1,"L2Lat":8,"Clusters":1,"MinMax":false},` +
	`"Bench":"G","Unroll":2,"Cycles":1234,"Time":1234,"Speedup":1,"Spilled":0,"Failed":false}]},` +
	`"stats":{"Runs":4,"Architectures":1,"DesignPoints":1,"Benchmarks":1,"WallTime":5,"PerArch":5,"PerRun":1,` +
	`"Failures":0,"Phases":{"Compile":1,"Simulate":2,"CostModel":3}}}`

// checkDecodeStatus holds decodeStatus to json.Unmarshal on one body:
// what encoding/json decodes, decodeStatus decodes to the same value;
// what it refuses, decodeStatus refuses too, or passes on with a result
// that is not JSON, for dse.FromJSON to refuse. A result read in place
// is what dse.FromJSON reads from the bytes cut out.
func checkDecodeStatus(t *testing.T, body []byte) {
	t.Helper()
	var want serve.JobStatus
	werr := json.Unmarshal(body, &want)
	got, res, gerr := decodeStatus(body)
	switch {
	case werr == nil && (gerr != nil || !reflect.DeepEqual(got, want)):
		t.Fatalf("decodeStatus(%q) = %+v, %v; json.Unmarshal gives %+v", body, got, gerr, want)
	case werr != nil && gerr == nil && json.Valid(got.Result):
		t.Fatalf("decodeStatus(%q) = %+v; json.Unmarshal says %v", body, got, werr)
	}
	rest, result, cut, ok := splitStatus(body)
	if !ok {
		if res != nil {
			t.Fatalf("decodeStatus(%q) read a result splitStatus does not cut", body)
		}
		return
	}
	// The cut is the member and at most one comma: rest and result are
	// the rest of the body, and result lies in it behind its name.
	if n := len(body) - len(rest) - len(result); n != len(`"result":,`) && n != len(`"result":`) {
		t.Fatalf("splitStatus(%q) = %q + %q: %d bytes cut", body, rest, result, n)
	}
	if at := offsetIn(body, result); !bytes.HasSuffix(body[:at], []byte(`"result":`)) {
		t.Fatalf("splitStatus(%q): result %q is not the value of a result member", body, result)
	}
	if cut == nil {
		if res != nil {
			t.Fatalf("decodeStatus(%q) read a result splitStatus does not read", body)
		}
		return
	}
	whole, err := dse.FromJSON(result)
	if err != nil || !reflect.DeepEqual(cut, whole) {
		t.Fatalf("splitStatus(%q) reads the result as %+v; dse.FromJSON gives %+v, %v", body, cut, whole, err)
	}
	if res != nil && !reflect.DeepEqual(res, whole) {
		t.Fatalf("decodeStatus(%q) reads the result as %+v; dse.FromJSON gives %+v", body, res, whole)
	}
}

// offsetIn returns where in body its subslice part starts.
func offsetIn(body, part []byte) int { return cap(body) - cap(part) }

func TestSplitStatus(t *testing.T) {
	for _, tc := range statusBodies {
		_, _, res, ok := splitStatus([]byte(tc.body))
		if ok != tc.split {
			t.Errorf("%s: splitStatus takes it: %v, want %v", tc.name, ok, tc.split)
		}
		if read := strings.Contains(tc.body, workerDoc); ok && read != (res != nil) {
			t.Errorf("%s: splitStatus reads the result: %v, want %v", tc.name, res != nil, read)
		}
		checkDecodeStatus(t, []byte(tc.body))
	}
	// What the split is for: the result of a finished shard is handed
	// on where it lies, and read there when it is a worker's document.
	for _, i := range []int{2, 26} {
		body := []byte(statusBodies[i].body)
		st, res, err := decodeStatus(body)
		if err != nil || len(st.Result) == 0 || &st.Result[0] != &body[offsetIn(body, st.Result)] {
			t.Errorf("decodeStatus copied the result: %+v, %v", st, err)
		}
		if (res != nil) != (i == 26) {
			t.Errorf("%s: decodeStatus reads the result: %v", statusBodies[i].name, res != nil)
		}
	}
}

// FuzzSplitStatus: on arbitrary bytes the splitter declines, or cuts
// out exactly one result member, and decodeStatus — the splitter,
// encoding/json for the rest, encoding/json for everything when the
// splitter declines or the rest has a result of its own — agrees with
// json.Unmarshal of the whole body.
func FuzzSplitStatus(f *testing.F) {
	for _, tc := range statusBodies {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkDecodeStatus(t, body) })
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
	opts.HedgeAfter = -1
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
// commit's server, which answers it as it always did.
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

	// The same shard through this commit's loop (a second job: the first
	// is finished, so nothing coalesces).
	a := &attempt{worker: &workerState{url: w.URL}}
	res, _, err := cl.runShard(context.Background(), a, ereq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalJSON(t, old) != canonicalJSON(t, res) {
		t.Error("the parent's poll loop and this one read different results off one server")
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
