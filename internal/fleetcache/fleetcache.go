// Package fleetcache is the network level of the fleet-wide evaluation
// cache, and the only place its wire protocol is written down. It is
// both ends of it: Client is an evcache.Store implemented over a peer's
// /v1/cache endpoints, and Handler serves any evcache.Store on those
// endpoints (cfp-serve mounts it over its cache), so one process's
// compiled sweeps are readable (and writable, via write-behind) by the
// whole fleet.
//
// Protocol (see docs/DISTRIBUTED.md):
//
//	GET  /v1/cache/{shard}/{key}   -> 200 Entry JSON + X-CFP-Fingerprint
//	                                  404 miss (or no cache attached)
//	POST /v1/cache/{shard}         -> batched put/has (PutRequest), 200
//	                                  PutResponse; 409 on admission
//	                                  refusal, 400 on a malformed body or
//	                                  an empty key, 413 past 8 MiB
//
// Admission is fingerprint-gated in both directions, mirroring the
// distributed coordinator's worker admission: a PutRequest carries the
// sender's sched.Fingerprint() and evcache.SchemaVersion (a skewed
// batch is refused with 409), and every GET response carries the
// server's fingerprint, which Lookup verifies before trusting the
// entry — a version-skewed or corrupt peer degrades the caller to
// local-only (the error feeds evcache's circuit breaker), it never
// poisons results.
package fleetcache

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"customfit/internal/evcache"
	"customfit/internal/obs"
	"customfit/internal/sched"
)

// FingerprintHeader carries the serving backend's sched.Fingerprint()
// on every GET /v1/cache response.
const FingerprintHeader = "X-CFP-Fingerprint"

// DefaultTimeout bounds each cache round trip when the caller supplies
// no http.Client. Cache traffic must stay snappy: a slow peer is a
// miss, not a stall.
const DefaultTimeout = 5 * time.Second

// maxEntryBytes bounds a GET response body; real entries are tens of
// bytes.
const maxEntryBytes = 1 << 16

// maxPutBytes bounds a POST body, which arrives from outside the
// process. A record is a few hundred bytes: the limit leaves room for
// 32 write-behind batches of evcache's 256 entries at a generous 1 KiB
// a record.
const maxPutBytes = 8 << 20

// PutRequest is the body of POST /v1/cache/{shard}: a batched put
// and/or has-check in one round trip.
type PutRequest struct {
	// Fingerprint is the sender's sched.Fingerprint(); the server
	// refuses mismatches the way the dist coordinator refuses
	// version-skewed workers.
	Fingerprint string `json:"fingerprint"`
	// Schema is the sender's evcache.SchemaVersion.
	Schema int `json:"schema"`
	// Put is admitted into the shard.
	Put []evcache.Record `json:"put,omitempty"`
	// Has asks which of these keys the server is missing.
	Has []string `json:"has,omitempty"`
}

// PutResponse answers a PutRequest.
type PutResponse struct {
	// Accepted is how many Put records were admitted.
	Accepted int `json:"accepted"`
	// Missing are the Has keys the server does not hold.
	Missing []string `json:"missing,omitempty"`
}

// Client speaks the cache protocol against one peer. It is stateless
// and safe for concurrent use.
type Client struct {
	base string
	http *http.Client
}

var _ evcache.Store = (*Client)(nil)

// New returns a client for the peer at baseURL ("http://host:port").
// A nil hc uses a private client with DefaultTimeout.
func New(baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: DefaultTimeout}
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), http: hc}
}

// BaseURL returns the peer this client talks to.
func (c *Client) BaseURL() string { return c.base }

func (c *Client) shardURL(shard string) string {
	return c.base + "/v1/cache/" + url.PathEscape(shard)
}

// Lookup fetches one entry. A 404 is a plain miss; a fingerprint
// mismatch or an undecodable body is refused with an error (counted on
// evcache.net_refused) so the local tier's circuit breaker sees it.
func (c *Client) Lookup(shard, key string) (evcache.Entry, bool, error) {
	var e evcache.Entry
	resp, err := c.http.Get(c.shardURL(shard) + "/" + url.PathEscape(key))
	if err != nil {
		return e, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxEntryBytes))
		return e, false, nil
	default:
		return e, false, fmt.Errorf("fleetcache: GET %s/%s: %s", shard, key, resp.Status)
	}
	if fp := resp.Header.Get(FingerprintHeader); fp != sched.Fingerprint() {
		obs.GetCounter("evcache.net_refused").Inc()
		return e, false, fmt.Errorf("fleetcache: peer %s backend fingerprint %q does not match ours %q; refusing entry", c.base, fp, sched.Fingerprint())
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxEntryBytes)).Decode(&e); err != nil {
		obs.GetCounter("evcache.net_refused").Inc()
		return e, false, fmt.Errorf("fleetcache: GET %s/%s: corrupt entry: %w", shard, key, err)
	}
	return e, true, nil
}

// StoreBatch ships a batch of records into the peer's shard.
func (c *Client) StoreBatch(shard string, recs []evcache.Record) error {
	_, err := c.post(shard, PutRequest{
		Fingerprint: sched.Fingerprint(),
		Schema:      evcache.SchemaVersion,
		Put:         recs,
	})
	return err
}

// Missing asks the peer which keys it lacks.
func (c *Client) Missing(shard string, keys []string) ([]string, error) {
	pr, err := c.post(shard, PutRequest{
		Fingerprint: sched.Fingerprint(),
		Schema:      evcache.SchemaVersion,
		Has:         keys,
	})
	if err != nil {
		return nil, err
	}
	return pr.Missing, nil
}

func (c *Client) post(shard string, req PutRequest) (PutResponse, error) {
	var out PutResponse
	body, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	resp, err := c.http.Post(c.shardURL(shard), "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return out, fmt.Errorf("fleetcache: POST %s: %s: %s", shard, resp.Status, strings.TrimSpace(string(data)))
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("fleetcache: POST %s: %w", shard, err)
	}
	return out, nil
}

// Handler serves store to the fleet on the two /v1/cache endpoints.
// The store is all it knows of the cache behind it: a tier failure (a
// non-nil error from the store) is answered 500, never as a hit or a
// miss. Traffic is counted on serve.cache_gets, serve.cache_get_misses,
// serve.cache_puts and serve.cache_put_refused.
func Handler(store evcache.Store) http.Handler {
	mux := http.NewServeMux()
	// Every GET response carries the backend fingerprint so clients can
	// refuse skewed entries.
	mux.HandleFunc("GET /v1/cache/{shard}/{key}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(FingerprintHeader, sched.Fingerprint())
		e, ok, err := store.Lookup(r.PathValue("shard"), r.PathValue("key"))
		switch {
		case err != nil:
			replyErr(w, http.StatusInternalServerError, err.Error())
		case !ok:
			obs.GetCounter("serve.cache_get_misses").Inc()
			replyErr(w, http.StatusNotFound, "no such entry")
		default:
			obs.GetCounter("serve.cache_gets").Inc()
			reply(w, http.StatusOK, e)
		}
	})
	mux.HandleFunc("POST /v1/cache/{shard}", func(w http.ResponseWriter, r *http.Request) {
		var req PutRequest
		err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxPutBytes)).Decode(&req)
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			replyErr(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", maxPutBytes))
			return
		case err != nil && !errors.Is(err, io.EOF):
			replyErr(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
			return
		}
		// Version-skewed batches are refused — the cache-tier analogue of
		// the coordinator refusing fingerprint-mismatched workers.
		if req.Fingerprint != sched.Fingerprint() || req.Schema != evcache.SchemaVersion {
			obs.GetCounter("serve.cache_put_refused").Inc()
			replyErr(w, http.StatusConflict, fmt.Sprintf(
				"cache admission refused: sender fingerprint/schema %q/%d vs server %q/%d (mixed backends would poison fleet results)",
				req.Fingerprint, req.Schema, sched.Fingerprint(), evcache.SchemaVersion))
			return
		}
		for _, rec := range req.Put {
			if rec.Key == "" {
				replyErr(w, http.StatusBadRequest, "put record with an empty key; nothing admitted")
				return
			}
		}
		shard := r.PathValue("shard")
		var resp PutResponse
		if len(req.Put) > 0 {
			if err := store.StoreBatch(shard, req.Put); err != nil {
				replyErr(w, http.StatusInternalServerError, err.Error())
				return
			}
			resp.Accepted = len(req.Put)
			obs.GetCounter("serve.cache_puts").Add(int64(len(req.Put)))
		}
		if len(req.Has) > 0 {
			if resp.Missing, err = store.Missing(shard, req.Has); err != nil {
				replyErr(w, http.StatusInternalServerError, err.Error())
				return
			}
		}
		reply(w, http.StatusOK, resp)
	})
	return mux
}

func reply(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// replyErr writes the {"error": msg} body every non-2xx cfp-serve
// reply carries.
func replyErr(w http.ResponseWriter, code int, msg string) {
	reply(w, code, map[string]string{"error": msg})
}
