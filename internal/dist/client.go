package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"customfit/internal/dse"
	"customfit/internal/obs"
	"customfit/internal/serve"
)

// permanentError marks a failure no retry can fix (a malformed request,
// a deterministic job failure): the coordinator aborts the whole run
// instead of burning retries on it.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

func permanent(err error) error { return &permanentError{err} }

func isPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// errAttemptAborted reports that the coordinator itself cancelled this
// attempt (a hedge lost the race, or the run is shutting down): not a
// worker failure, not retryable, just cleanup.
var errAttemptAborted = errors.New("dist: attempt aborted by coordinator")

// client speaks the cfp-serve HTTP/JSON job API.
type client struct {
	http *http.Client
	poll time.Duration
}

// health fetches a worker's /healthz. Any non-200 (including 503 while
// draining) is an error.
func (c *client) health(ctx context.Context, workerURL string) (serve.HealthResponse, error) {
	var h serve.HealthResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, workerURL+"/healthz", nil)
	if err != nil {
		return h, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz: %s", httpError(resp))
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return h, fmt.Errorf("healthz: %w", err)
	}
	return h, nil
}

// reapTimeout bounds the requests a cancelled run still makes to leave
// no job behind: a DELETE, and a submit caught in flight.
const reapTimeout = 3 * time.Second

// submit POSTs one shard's exploration and returns the job id. A 400 is
// permanent (the request itself is broken); 503 and transport errors
// are retryable.
//
// Cancelling ctx does not cut the exchange short: once the worker has
// read the POST it owns a job, and only its answer carries the id a
// DELETE needs. A submit in flight when ctx ends gets reapTimeout to
// finish and returns the id, for the caller to cancel.
func (c *client) submit(ctx context.Context, workerURL string, ereq serve.ExploreRequest) (string, error) {
	body, err := json.Marshal(ereq)
	if err != nil {
		return "", permanent(err)
	}
	if ctx.Err() != nil {
		return "", ctx.Err()
	}
	sctx, cut := context.WithCancel(context.WithoutCancel(ctx))
	defer cut()
	unhook := context.AfterFunc(ctx, func() { time.AfterFunc(reapTimeout, cut) })
	defer unhook()
	req, err := http.NewRequestWithContext(sctx, http.MethodPost, workerURL+"/v1/explore", bytes.NewReader(body))
	if err != nil {
		return "", permanent(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if ereq.TraceParent != "" {
		// Also as a header, so trace-aware proxies between coordinator
		// and worker see the propagation (the body field wins server-side).
		req.Header.Set("traceparent", ereq.TraceParent)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusAccepted:
		var sub serve.SubmitResponse
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			return "", fmt.Errorf("submit: %w", err)
		}
		return sub.ID, nil
	case resp.StatusCode == http.StatusBadRequest:
		return "", permanent(fmt.Errorf("submit: %s", httpError(resp)))
	default:
		return "", fmt.Errorf("submit: %s", httpError(resp))
	}
}

// maxStatusBytes bounds the job status a coordinator reads from a
// worker: the results document of the full op-crossed space over all
// eleven kernels is under 4 MiB, so this is generous, and a worker
// cannot make the coordinator allocate more by claiming or sending it.
const maxStatusBytes = 64 << 20

// pollJob fetches one job snapshot, as the bytes of its body. The
// request asks the worker to hold its answer until the job is terminal,
// for c.poll at most (serve's ?wait=); a worker that does not know the
// parameter answers at once.
func (c *client) pollJob(ctx context.Context, workerURL, jobID string) ([]byte, error) {
	url := workerURL + "/v1/jobs/" + jobID + "?wait=" + c.poll.String()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("job %s: %s", jobID, httpError(resp))
	}
	body, err := readBounded(resp.Body, resp.ContentLength, maxStatusBytes)
	if err != nil {
		return nil, fmt.Errorf("job %s: %w", jobID, err)
	}
	return body, nil
}

// readBounded reads r to its end into one buffer made for the size
// announced (-1: none was), and refuses more than limit bytes, announced
// or sent.
func readBounded(r io.Reader, size, limit int64) ([]byte, error) {
	if size > limit {
		return nil, fmt.Errorf("body of %d bytes exceeds %d", size, limit)
	}
	// bytes.MinRead to spare is what ReadFrom wants to see EOF without
	// growing the buffer.
	buf := bytes.NewBuffer(make([]byte, 0, max(size, 0)+bytes.MinRead))
	if _, err := buf.ReadFrom(io.LimitReader(r, limit+1)); err != nil {
		return nil, err
	}
	if int64(buf.Len()) > limit {
		return nil, fmt.Errorf("body exceeds %d bytes", limit)
	}
	return buf.Bytes(), nil
}

// decodeStatus decodes a job status body. The result member — nearly
// all of a finished shard's body — is cut out by splitStatus and handed
// on as it stands (dse.FromJSON validates it when it decodes it), the
// rest goes through encoding/json; a body splitStatus declines, or whose
// rest names a result of its own (a repeated member, a key json matches
// by case or escape), is decoded whole by encoding/json, as every body
// used to be. A result handed on aliases body.
func decodeStatus(body []byte) (serve.JobStatus, error) {
	var st serve.JobStatus
	if rest, result, ok := splitStatus(body); ok {
		if err := json.Unmarshal(rest, &st); err == nil && st.Result == nil {
			st.Result = result
			return st, nil
		}
		st = serve.JobStatus{}
	}
	err := json.Unmarshal(body, &st)
	return st, err
}

// splitStatus cuts the top-level member "result" out of a JSON object:
// rest is body without the member (a copy), result the member's value
// (a slice of body). It walks the members in front of the result and the
// result itself by quotes, escapes and bracket depth only, validating
// nothing — rest is for encoding/json to validate, result for
// dse.FromJSON — and declines (ok false) an object without the member,
// and any byte between tokens that is not the next token.
func splitStatus(body []byte) (rest, result []byte, ok bool) {
	if len(body) == 0 || body[0] != '{' {
		return nil, nil, false
	}
	for i := 1; ; i++ {
		key := i
		if i = skipString(body, i); i < 0 || i >= len(body) || body[i] != ':' {
			return nil, nil, false
		}
		val := i + 1
		if i = skipValue(body, val); i < 0 || i >= len(body) || body[i] != ',' && body[i] != '}' {
			return nil, nil, false
		}
		if string(body[key:val]) != `"result":` {
			if body[i] == '}' {
				return nil, nil, false
			}
			continue
		}
		// The member goes with one of its commas: the one in front, or
		// for a first member the one behind, if there is one — and then a
		// member must follow it, or cutting both would hide a trailing
		// comma from encoding/json.
		from, to := key, i
		switch {
		case key > 1:
			from--
		case body[i] == ',':
			if i+1 >= len(body) || body[i+1] != '"' {
				return nil, nil, false
			}
			to++
		}
		rest = make([]byte, 0, len(body)-(to-from))
		rest = append(append(rest, body[:from]...), body[to:]...)
		return rest, body[val:i], true
	}
}

// skipString returns the offset behind the JSON string that starts at
// body[i], or -1 if none does or it does not end.
func skipString(body []byte, i int) int {
	if i >= len(body) || body[i] != '"' {
		return -1
	}
	for i++; i < len(body); i++ {
		switch body[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return -1
}

// skipValue returns the offset behind the JSON value that starts at
// body[i], or -1: a string, an object or array up to its closing
// bracket (of either kind: brackets are counted, not matched), or a run
// of the characters numbers and literals are made of.
func skipValue(body []byte, i int) int {
	if i >= len(body) {
		return -1
	}
	switch body[i] {
	case '"':
		return skipString(body, i)
	case '{', '[':
		for depth := 0; i < len(body); i++ {
			switch body[i] {
			case '"':
				if i = skipString(body, i) - 1; i < 0 {
					return -1
				}
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
		}
		return -1
	}
	start := i
	for i < len(body) && (body[i] >= 'a' && body[i] <= 'z' || body[i] >= '0' && body[i] <= '9' ||
		body[i] == '-' || body[i] == '+' || body[i] == '.' || body[i] == 'E') {
		i++
	}
	if i == start {
		return -1
	}
	return i
}

// cancel best-effort DELETEs a job on its own short deadline — it is
// called while the run's context is already cancelled (shutdown) or to
// reap a hedge loser, so it must not inherit either.
func (c *client) cancel(workerURL, jobID string) {
	ctx, stop := context.WithTimeout(context.Background(), reapTimeout)
	defer stop()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, workerURL+"/v1/jobs/"+jobID, nil)
	if err != nil {
		return
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return
	}
	resp.Body.Close()
}

// runShard submits one attempt's shard and follows it to a terminal
// state, returning the decoded shard Results plus the worker-side spans
// the job captured (non-nil only when ereq carried a TraceParent). Each
// poll asks the worker to hold its answer until the job ends, for
// c.poll at most, and the next poll goes out c.poll after the last one
// did: a worker that holds tells the coordinator when the shard is
// done, and one that does not is polled every c.poll. Worker death
// mid-run surfaces as consecutive poll failures (connection errors, a
// status over maxStatusBytes or one that does not decode) and is
// reported as a retryable error. When ctx ends, the job is DELETEd before runShard
// returns. sp is the attempt's dist.shard span, which learns where the
// shard's time went.
func (c *client) runShard(ctx context.Context, a *attempt, ereq serve.ExploreRequest, sp *obs.Span) (*dse.Results, []obs.WireSpan, error) {
	start := time.Now()
	jobID, err := c.submit(ctx, a.worker.url, ereq)
	if err != nil {
		return nil, nil, err
	}
	a.setJob(jobID)
	submitted := time.Now()
	var decode time.Duration
	polls, resultBytes := 0, 0
	defer func() {
		wait := time.Since(submitted) - decode
		sp.Float("submit_ms", ms(submitted.Sub(start))).Float("wait_ms", ms(wait)).
			Float("decode_ms", ms(decode)).Int("result_bytes", int64(resultBytes)).Int("polls", int64(polls))
		obs.GetHistogram("dist.shard_wait_seconds").Observe(wait.Seconds())
		obs.GetHistogram("dist.shard_decode_seconds").Observe(decode.Seconds())
	}()
	pollFails := 0
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		select {
		case <-timer.C:
		case <-ctx.Done():
			c.cancel(a.worker.url, jobID)
			return nil, nil, ctx.Err()
		}
		asked := time.Now()
		polls++
		body, err := c.pollJob(ctx, a.worker.url, jobID)
		var st serve.JobStatus
		if err == nil {
			t0 := time.Now()
			if st, err = decodeStatus(body); err != nil {
				err = fmt.Errorf("job %s: %w", jobID, err)
			}
			decode += time.Since(t0)
		}
		// The next poll, if there is one, is due c.poll after this one
		// was sent: at once when the worker held it that long.
		timer.Reset(c.poll - time.Since(asked))
		if err != nil {
			if ctx.Err() != nil {
				c.cancel(a.worker.url, jobID)
				return nil, nil, ctx.Err()
			}
			if pollFails++; pollFails >= 3 {
				return nil, nil, fmt.Errorf("worker %s: %d polls of job %s failed in a row: %w", a.worker.url, pollFails, jobID, err)
			}
			continue
		}
		pollFails = 0
		switch st.State {
		case serve.StateDone:
			resultBytes = len(st.Result)
			t0 := time.Now()
			res, err := dse.FromJSON(st.Result)
			decode += time.Since(t0)
			if err != nil {
				return nil, nil, permanent(fmt.Errorf("worker %s job %s: %w", a.worker.url, jobID, err))
			}
			return res, st.Spans, nil
		case serve.StateFailed:
			// Deterministic pipeline: a failed shard fails everywhere.
			return nil, nil, permanent(fmt.Errorf("worker %s job %s failed: %s", a.worker.url, jobID, st.Error))
		case serve.StateCancelled:
			if a.isAborted() {
				return nil, nil, errAttemptAborted
			}
			// Cancelled server-side (drain past deadline): retry elsewhere.
			return nil, nil, fmt.Errorf("worker %s cancelled job %s: %s", a.worker.url, jobID, st.Error)
		}
	}
}

// ms is d in milliseconds, as span attributes carry durations.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// httpError renders a non-2xx response, preferring the JSON error body.
func httpError(resp *http.Response) string {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e serve.ErrorResponse
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return fmt.Sprintf("%s: %s", resp.Status, e.Error)
	}
	return fmt.Sprintf("%s: %s", resp.Status, strings.TrimSpace(string(data)))
}
