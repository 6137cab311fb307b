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

// jobStatus fetches one job snapshot.
func (c *client) jobStatus(ctx context.Context, workerURL, jobID string) (serve.JobStatus, error) {
	var st serve.JobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, workerURL+"/v1/jobs/"+jobID, nil)
	if err != nil {
		return st, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("job %s: %s", jobID, httpError(resp))
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("job %s: %w", jobID, err)
	}
	return st, nil
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

// runShard submits one attempt's shard and polls it to a terminal
// state, returning the decoded shard Results plus the worker-side spans
// the job captured (non-nil only when ereq carried a TraceParent).
// Worker death mid-run surfaces as consecutive poll failures
// (connection errors) and is reported as a retryable error. When ctx
// ends, the job is DELETEd before runShard returns.
func (c *client) runShard(ctx context.Context, a *attempt, ereq serve.ExploreRequest) (*dse.Results, []obs.WireSpan, error) {
	jobID, err := c.submit(ctx, a.worker.url, ereq)
	if err != nil {
		return nil, nil, err
	}
	a.setJob(jobID)
	pollFails := 0
	timer := time.NewTimer(c.poll)
	defer timer.Stop()
	for {
		select {
		case <-timer.C:
		case <-ctx.Done():
			c.cancel(a.worker.url, jobID)
			return nil, nil, ctx.Err()
		}
		st, err := c.jobStatus(ctx, a.worker.url, jobID)
		if err != nil {
			if ctx.Err() != nil {
				c.cancel(a.worker.url, jobID)
				return nil, nil, ctx.Err()
			}
			if pollFails++; pollFails >= 3 {
				return nil, nil, fmt.Errorf("worker %s unreachable polling job %s: %w", a.worker.url, jobID, err)
			}
			timer.Reset(c.poll)
			continue
		}
		pollFails = 0
		switch st.State {
		case serve.StateDone:
			res, err := dse.FromJSON(st.Result)
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
		timer.Reset(c.poll)
	}
}

// httpError renders a non-2xx response, preferring the JSON error body.
func httpError(resp *http.Response) string {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e serve.ErrorResponse
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return fmt.Sprintf("%s: %s", resp.Status, e.Error)
	}
	return fmt.Sprintf("%s: %s", resp.Status, strings.TrimSpace(string(data)))
}
