package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"customfit/internal/dse"
	"customfit/internal/obs"
)

// TestStatusBytesUnchanged pins the wire: what statusParts assembles —
// and writeStatus sends, under a Content-Length of that size — is what
// json.NewEncoder(w).Encode(JobStatus) wrote before the result stopped
// going through encoding/json a second time, for every kind of job in
// every state. The results are made the way the runners make them, so
// the compile's "<" is escaped before the status ever sees it.
func TestStatusBytesUnchanged(t *testing.T) {
	marshal := func(v any) json.RawMessage {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	doc, err := os.ReadFile(filepath.Join("..", "dse", "testdata", "results_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := dse.FromJSON(doc)
	if err != nil {
		t.Fatal(err)
	}
	explored, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	results := map[string]json.RawMessage{
		"compile": marshal(CompileResult{Kernel: "k", Arch: "2 1 64 1 4 1", Unroll: 1, Bundles: 3, StaticIPC: 1.5,
			Assembly: "0:  c0{v1 = cmplt v2 < v3 && v4 > v5} \n"}),
		"simulate": marshal(SimulateResult{Bench: "A", Arch: "2 1 64 1 4 1", Cycles: 1 << 40, Time: 1e21, IPC: 1e-7, Bound: "ALU", Verified: true}),
		"explore":  explored,
		"fit":      marshal(FitResultJSON{Best: "4 2 128 2 4 2", Cost: 3.25, Speedups: map[string]float64{"G": 2.5, "D": 1}}),
	}
	progress := marshal(dse.ProgressInfo{Done: 3, Total: 40, Failed: 1, Elapsed: time.Second, RatePerSec: 3, ETA: 12 * time.Second})
	spans := []obs.WireSpan{
		{Name: "serve.job", TraceID: "0af7651916cd43dd8448eb211c80319c", SpanID: "b7ad6b7169203331", DurUS: 1200,
			Attrs: map[string]any{"kind": "explore", "id": "j7", "note": "a<b"}},
		{Name: "dse.explore", TraceID: "0af7651916cd43dd8448eb211c80319c", SpanID: "00f067aa0ba902b7", Parent: "b7ad6b7169203331", Track: 1, StartUS: 10, DurUS: 1100},
	}
	for kind, result := range results {
		for _, st := range []JobStatus{
			{State: StateQueued},
			{State: StateRunning, Progress: progress},
			{State: StateDone, Progress: progress, Result: result},
			{State: StateDone, Result: result, Spans: spans},
			{State: StateFailed, Error: `dse: baseline failed on "G" <&>`, Progress: progress, Spans: spans},
			{State: StateCancelled, Error: "cancelled before starting"},
		} {
			st.ID, st.Kind = "j7", kind
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(st); err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			writeStatus(rec, st)
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
				t.Errorf("%s %s: writeStatus sends %d\n%.300s\nEncode wrote\n%.300s", kind, st.State, rec.Code, rec.Body, want.Bytes())
			}
			if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(want.Len()) {
				t.Errorf("%s %s: Content-Length %q for %d bytes", kind, st.State, got, want.Len())
			}
			if got := rec.Header().Get("Content-Type"); got != "application/json" {
				t.Errorf("%s %s: Content-Type %q", kind, st.State, got)
			}
		}
	}
}

// TestWaitParameter is the grammar of ?wait=: a duration, not negative,
// clamped to maxPollWait; anything else is the client's error.
func TestWaitParameter(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want time.Duration
		bad  bool
	}{
		{"", 0, false},
		{"0", 0, false},
		{"0s", 0, false},
		{"5ms", 5 * time.Millisecond, false},
		{"1.5s", 1500 * time.Millisecond, false},
		{"30s", maxPollWait, false},
		{"1h", maxPollWait, false},
		{"2562047h", maxPollWait, false},
		{"-1s", 0, true},
		{"200", 0, true},
		{"soon", 0, true},
		{"1e3s", 0, true},
		{"9999999h", 0, true},
	} {
		got, err := parseWait(tc.in)
		if got != tc.want || (err != nil) != tc.bad {
			t.Errorf("parseWait(%q) = %v, %v; want %v, error %v", tc.in, got, err, tc.want, tc.bad)
		}
	}

	_, ts, _ := newTestServer(t, Options{Workers: 1})
	var sub SubmitResponse
	postJSON(t, ts.URL+"/v1/compile", CompileRequest{Bench: "A", Arch: "2 1 64 1 4 1"}, &sub)
	for wait, want := range map[string]int{"-1s": http.StatusBadRequest, "soon": http.StatusBadRequest, "1h": http.StatusOK} {
		// "1h" is answered when the compile ends, long before any cap.
		resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "?wait=" + wait)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("wait=%s: status %d, want %d", wait, resp.StatusCode, want)
		}
	}
}

// blockingJob submits a job that runs until release is closed (done,
// with a result) or its context ends (cancelled).
func blockingJob(t *testing.T, s *Server) (j *Job, release chan struct{}) {
	t.Helper()
	release = make(chan struct{})
	j, _, err := s.submit("test", "", obs.SpanContext{}, func(ctx context.Context, _ *Job) (json.RawMessage, error) {
		select {
		case <-release:
			return json.RawMessage(`{"ok":true}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return j, release
}

// heldPoll sends GET /v1/jobs/{id}?wait=30s under ctx and returns once
// the server holds it. The answer (or the request's error) arrives on
// the channel.
func heldPoll(t *testing.T, ctx context.Context, base string, j *Job, col *obs.Collector) <-chan pollAnswer {
	t.Helper()
	before := col.Counter("serve.polls_held").Value()
	out := make(chan pollAnswer, 1)
	go func() {
		var a pollAnswer
		defer func() { out <- a }()
		start := time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+j.ID+"?wait=30s", nil)
		if err != nil {
			a.err = err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			a.err = err
			return
		}
		defer resp.Body.Close()
		a.err = json.NewDecoder(resp.Body).Decode(&a.st)
		a.took = time.Since(start)
	}()
	for col.Counter("serve.polls_held").Value() == before {
		select {
		case a := <-out:
			t.Fatalf("poll of a live job was not held: %+v", a)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	return out
}

type pollAnswer struct {
	st   JobStatus
	err  error
	took time.Duration
}

// prompt is how long after the event it waits for a held poll may take
// to answer: far under the 30 s it asked for, far over any scheduling
// delay of a loaded test machine.
const prompt = 10 * time.Second

// TestHeldPollAnsweredWhenJobFinishes: the answer to a held poll is the
// terminal status, the moment there is one.
func TestHeldPollAnsweredWhenJobFinishes(t *testing.T) {
	s, ts, col := newTestServer(t, Options{Workers: 1})
	j, release := blockingJob(t, s)
	answer := heldPoll(t, context.Background(), ts.URL, j, col)
	close(release)
	a := <-answer
	if a.err != nil || a.st.State != StateDone || string(a.st.Result) != `{"ok":true}` || a.took > prompt {
		t.Fatalf("held poll answered %+v after %v (%v), want done at once", a.st, a.took, a.err)
	}
	// A poll of a terminal job is not held at all.
	if got := getJobWait(t, ts.URL, j.ID); got.State != StateDone {
		t.Fatalf("poll of a finished job: %+v", got)
	}
	if v := col.Counter("serve.polls_held").Value(); v != 1 {
		t.Errorf("serve.polls_held = %d, want 1", v)
	}
}

// getJobWait is getJob with ?wait=30s.
func getJobWait(t *testing.T, base, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "?wait=30s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestHeldPollAnsweredWhenJobDeleted: DELETE ends a hold on a running
// job (through its context) and on a queued one (which finishes on the
// spot).
func TestHeldPollAnsweredWhenJobDeleted(t *testing.T) {
	s, ts, col := newTestServer(t, Options{Workers: 1})
	running, release := blockingJob(t, s)
	defer close(release)
	queued, _ := blockingJob(t, s)
	for running.State() != StateRunning {
		time.Sleep(time.Millisecond)
	}
	for _, j := range []*Job{queued, running} {
		answer := heldPoll(t, context.Background(), ts.URL, j, col)
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		a := <-answer
		if a.err != nil || a.st.State != StateCancelled || a.took > prompt {
			t.Fatalf("held poll of deleted job %s answered %+v after %v (%v), want cancelled at once", j.ID, a.st, a.took, a.err)
		}
	}
}

// TestHeldPollEndsWithItsClient: a client that goes away takes its hold
// with it; the job runs on.
func TestHeldPollEndsWithItsClient(t *testing.T) {
	col := obs.NewCollector()
	obs.Install(col)
	defer obs.Install(nil)
	s := New(Options{Workers: 1, Collector: col})
	returned := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.Handler().ServeHTTP(w, r)
		if r.Method == http.MethodGet && r.URL.Query().Get("wait") != "" {
			returned <- struct{}{}
		}
	}))
	defer ts.Close()
	defer s.Shutdown(context.Background())
	j, release := blockingJob(t, s)
	defer close(release)

	ctx, hangUp := context.WithCancel(context.Background())
	answer := heldPoll(t, ctx, ts.URL, j, col)
	hangUp()
	if a := <-answer; a.err == nil {
		t.Fatalf("a cancelled request was answered: %+v", a.st)
	}
	select {
	case <-returned:
	case <-time.After(prompt):
		t.Fatal("the handler still holds a poll whose client is gone")
	}
	if st := j.State(); st != StateRunning {
		t.Errorf("job is %s after its poller left, want running", st)
	}
}

// TestHeldPollDoesNotHoldShutdown: a drain waits for jobs, not for
// polls; past its deadline the jobs are cancelled, and that is what
// every held poll was waiting for.
func TestHeldPollDoesNotHoldShutdown(t *testing.T) {
	col := obs.NewCollector()
	obs.Install(col)
	defer obs.Install(nil)
	s := New(Options{Workers: 1, Collector: col})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	j, release := blockingJob(t, s)
	defer close(release)
	answer := heldPoll(t, context.Background(), ts.URL, j, col)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err == nil {
		t.Error("Shutdown reports a clean drain of a job that never ends")
	}
	if took := time.Since(start); took > prompt {
		t.Errorf("Shutdown took %v with a poll held for 30s, want its 50ms drain", took)
	}
	a := <-answer
	if a.err != nil || a.st.State != StateCancelled || a.took > prompt {
		t.Fatalf("held poll across a drain answered %+v after %v (%v), want cancelled", a.st, a.took, a.err)
	}
}

// TestFinishedJobLetsGoOfItsRequest: a retained job keeps its answer,
// not the closure that computed it. The closure here holds a megabyte
// the way an explore's holds its parsed grid; once the job is done a
// collection frees it, with the job still there to be polled.
func TestFinishedJobLetsGoOfItsRequest(t *testing.T) {
	s, ts, _ := newTestServer(t, Options{Workers: 1})
	freed := make(chan struct{})
	submit := func() *Job {
		request := new([1 << 20]byte)
		runtime.SetFinalizer(request, func(*[1 << 20]byte) { close(freed) })
		j, _, err := s.submit("test", "", obs.SpanContext{}, func(context.Context, *Job) (json.RawMessage, error) {
			// Sized the way a runner sizes a buffer before it knows the length.
			return append(make([]byte, 0, 4096), fmt.Sprintf(`{"first":%d}`, request[0])...), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	j := submit()
	if st := getJobWait(t, ts.URL, j.ID); st.State != StateDone {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}
	deadline := time.After(prompt)
	for collected := false; !collected; {
		runtime.GC()
		select {
		case <-freed:
			collected = true
		case <-deadline:
			t.Fatal("a finished job still holds what its run closure captured")
		case <-time.After(time.Millisecond):
		}
	}
	st := j.Status()
	if s.job(j.ID) != j || string(st.Result) != `{"first":0}` {
		t.Fatalf("the job did not outlive its closure: %+v", st)
	}
	if c := cap(st.Result); c != len(st.Result) {
		t.Errorf("a %d-byte result is retained in a %d-byte buffer", len(st.Result), c)
	}
}

// TestProgressEncodedWhenLookedAt: a snapshot nobody asks for is never
// encoded; a poll sees the latest, and so does the terminal status.
func TestProgressEncodedWhenLookedAt(t *testing.T) {
	j := &Job{ID: "t", Kind: "explore", state: StateRunning, done: make(chan struct{})}
	j.setProgress(dse.ProgressInfo{Done: 1, Total: 9})
	j.setProgress(dse.ProgressInfo{Done: 2, Total: 9})
	if j.progressJSON != nil {
		t.Fatal("a snapshot was encoded with nobody looking")
	}
	want, _ := json.Marshal(dse.ProgressInfo{Done: 2, Total: 9})
	if got := j.Status().Progress; !bytes.Equal(got, want) {
		t.Fatalf("Status().Progress = %s, want %s", got, want)
	}
	j.setProgress(dse.ProgressInfo{Done: 3, Total: 9})
	j.finish(StateDone, nil, "")
	want, _ = json.Marshal(dse.ProgressInfo{Done: 3, Total: 9})
	if got := j.Status().Progress; !bytes.Equal(got, want) {
		t.Errorf("terminal status lost the last snapshot: %s", got)
	}
}
