// External test package: the tests see only what a peer sees — the
// exported client, the exported handler and the wire.
package fleetcache_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"customfit/internal/evcache"
	"customfit/internal/fleetcache"
	"customfit/internal/sched"
)

// newPeer serves a fresh memory cache through Handler and returns a
// client for it.
func newPeer(t *testing.T) (*fleetcache.Client, *evcache.Cache) {
	t.Helper()
	cache, err := evcache.Open("")
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(fleetcache.Handler(cache))
	t.Cleanup(hs.Close)
	return fleetcache.New(hs.URL, hs.Client()), cache
}

func entry(i int) evcache.Entry {
	return evcache.Entry{Unroll: 1 + i%4, Cycles: int64(100 + i), Runs: 1}
}

func TestLookupHitMiss(t *testing.T) {
	cl, cache := newPeer(t)
	cache.Put("G", "k1", entry(1))

	e, ok, err := cl.Lookup("G", "k1")
	if err != nil || !ok || e != entry(1) {
		t.Fatalf("Lookup hit = %+v, %v, %v", e, ok, err)
	}
	// A miss is ok=false with a nil error — absence is not a failure.
	if _, ok, err := cl.Lookup("G", "absent"); ok || err != nil {
		t.Fatalf("Lookup miss = %v, %v; want false, nil", ok, err)
	}
	// Keys embed ':' and arch signatures; they must round-trip the URL.
	gnarly := "abc123def456:a8m2r128p1l4c2/x"
	cache.Put("G", gnarly, entry(2))
	if e, ok, err := cl.Lookup("G", gnarly); err != nil || !ok || e != entry(2) {
		t.Fatalf("gnarly key Lookup = %+v, %v, %v", e, ok, err)
	}

	// On the wire: a hit is 200 with the entry, a miss 404, both under
	// the server's fingerprint.
	for key, want := range map[string]int{"k1": http.StatusOK, "absent": http.StatusNotFound} {
		resp, err := http.Get(cl.BaseURL() + "/v1/cache/G/" + key)
		if err != nil {
			t.Fatal(err)
		}
		var got evcache.Entry
		derr := json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s status %s, want %d", key, resp.Status, want)
		}
		if fp := resp.Header.Get(fleetcache.FingerprintHeader); fp != sched.Fingerprint() {
			t.Errorf("GET %s fingerprint header %q, want %q", key, fp, sched.Fingerprint())
		}
		if want == http.StatusOK && (derr != nil || got != entry(1)) {
			t.Errorf("GET %s body = %+v, %v", key, got, derr)
		}
	}
}

func TestStoreBatchAndMissing(t *testing.T) {
	cl, cache := newPeer(t)
	recs := []evcache.Record{
		{Key: "k1", Entry: entry(1)},
		{Key: "k2", Entry: entry(2)},
	}
	if err := cl.StoreBatch("G", recs); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if e, ok := cache.Peek("G", r.Key); !ok || e != r.Entry {
			t.Errorf("server cache %s = %+v, %v after StoreBatch", r.Key, e, ok)
		}
	}
	miss, err := cl.Missing("G", []string{"k1", "k2", "k3"})
	if err != nil || len(miss) != 1 || miss[0] != "k3" {
		t.Fatalf("Missing = %v, %v; want [k3]", miss, err)
	}
}

// TestNoCacheAttachedIsMiss: a peer that does not serve the cache paths
// at all (a cfp-serve without a cache mounts no Handler) answers 404 to
// everything. To a read-through client that is a plain miss; a put is
// an error, surfaced so write-behind counts the drop.
func TestNoCacheAttachedIsMiss(t *testing.T) {
	hs := httptest.NewServer(http.NotFoundHandler())
	defer hs.Close()
	cl := fleetcache.New(hs.URL, hs.Client())
	if _, ok, err := cl.Lookup("G", "k"); ok || err != nil {
		t.Errorf("cacheless Lookup = %v, %v; want miss, nil", ok, err)
	}
	if err := cl.StoreBatch("G", []evcache.Record{{Key: "k", Entry: entry(1)}}); err == nil {
		t.Error("StoreBatch against cacheless peer succeeded")
	}
}

// TestFingerprintRefusedOnGet: an entry served under a wrong backend
// fingerprint must be refused with an error (feeding the circuit
// breaker), never returned as a hit.
func TestFingerprintRefusedOnGet(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(fleetcache.FingerprintHeader, "bogus-backend-v0")
		json.NewEncoder(w).Encode(entry(1))
	}))
	defer hs.Close()
	cl := fleetcache.New(hs.URL, hs.Client())
	if _, ok, err := cl.Lookup("G", "k"); ok || err == nil {
		t.Fatalf("skewed-fingerprint Lookup = %v, %v; want refused error", ok, err)
	}
}

// TestCorruptEntryRefused: a 200 with garbage JSON is refused with an
// error, not decoded into a zero entry.
func TestCorruptEntryRefused(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(fleetcache.FingerprintHeader, sched.Fingerprint())
		w.Write([]byte("!!not json!!"))
	}))
	defer hs.Close()
	cl := fleetcache.New(hs.URL, hs.Client())
	if _, ok, err := cl.Lookup("G", "k"); ok || err == nil {
		t.Fatalf("corrupt-body Lookup = %v, %v; want refused error", ok, err)
	}
}

// TestPutFingerprintRefused: the server 409s a version-skewed batch and
// admits nothing.
func TestPutFingerprintRefused(t *testing.T) {
	cl, cache := newPeer(t)
	body, _ := json.Marshal(fleetcache.PutRequest{
		Fingerprint: "bogus-backend-v0",
		Schema:      evcache.SchemaVersion,
		Put:         []evcache.Record{{Key: "poison", Entry: entry(1)}},
	})
	resp, err := http.Post(cl.BaseURL()+"/v1/cache/G", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("skewed put status = %s, want 409", resp.Status)
	}
	if _, ok := cache.Peek("G", "poison"); ok {
		t.Error("skewed batch was admitted")
	}
}

// putCases are POST /v1/cache/{shard} bodies with the status the
// handler owes each. They are the protocol table of TestHandlerPut and
// the seed corpus of FuzzHandlerPut; the fingerprint is read at run
// time, so a backend bump cannot silently turn the valid batch into a
// skewed one.
func putCases() []struct {
	name, body string
	status     int
} {
	head := `{"fingerprint":"` + sched.Fingerprint() + `","schema":` + strconv.Itoa(evcache.SchemaVersion) + `,`
	return []struct {
		name, body string
		status     int
	}{
		{"valid batch", head + `"put":[{"k":"k1","u":2,"c":101,"s":0,"r":1},{"k":"k2","u":3,"c":102,"s":0,"r":1}],"has":["k1","k3"]}`, http.StatusOK},
		{"has only", head + `"has":["k1","k3"]}`, http.StatusOK},
		{"skewed fingerprint", strings.Replace(head, sched.Fingerprint(), "bogus-backend-v0", 1) + `"put":[{"k":"poison","u":1,"c":1,"s":0,"r":1}]}`, http.StatusConflict},
		{"skewed schema", `{"fingerprint":"` + sched.Fingerprint() + `","schema":99,"put":[{"k":"poison","u":1,"c":1,"s":0,"r":1}]}`, http.StatusConflict},
		{"empty body", ``, http.StatusConflict},
		{"empty key", head + `"put":[{"k":"k1","u":2,"c":101,"s":0,"r":1},{"k":"","u":1,"c":1,"s":0,"r":1}]}`, http.StatusBadRequest},
		{"truncated JSON", head + `"put":[{"k":"k1","u":2,`, http.StatusBadRequest},
	}
}

// TestHandlerPut: the POST side of the protocol, status by status. Only
// a 200 admits anything, and then exactly what PutResponse.Accepted
// says; a batch with an empty key is refused whole.
func TestHandlerPut(t *testing.T) {
	for _, c := range putCases() {
		t.Run(c.name, func(t *testing.T) {
			cl, cache := newPeer(t)
			resp, err := http.Post(cl.BaseURL()+"/v1/cache/G", "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.status {
				t.Fatalf("status %s, want %d", resp.Status, c.status)
			}
			if c.status != http.StatusOK {
				if n := cache.Resident(); n != 0 {
					t.Errorf("a refused batch admitted %d entries", n)
				}
				return
			}
			var pr fleetcache.PutResponse
			if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
				t.Fatal(err)
			}
			if pr.Accepted != cache.Resident() {
				t.Errorf("Accepted = %d, cache holds %d", pr.Accepted, cache.Resident())
			}
			if len(pr.Missing) == 0 || pr.Missing[len(pr.Missing)-1] != "k3" {
				t.Errorf("Missing = %v, want it to end in k3", pr.Missing)
			}
		})
	}
}

// FuzzHandlerPut: the handler's body parser is the one gate between the
// network and a fleet's cache. Arbitrary bodies must never panic or
// earn a 5xx, and nothing is admitted unless the body's fingerprint and
// schema match this backend and every put key is non-empty.
func FuzzHandlerPut(f *testing.F) {
	for _, c := range putCases() {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		cache, err := evcache.Open("")
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		fleetcache.Handler(cache).ServeHTTP(rec, httptest.NewRequest("POST", "/v1/cache/G", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		if rec.Code != http.StatusOK {
			if n := cache.Resident(); n != 0 {
				t.Fatalf("status %d yet %d entries admitted", rec.Code, n)
			}
			return
		}
		var req fleetcache.PutRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body that does not decode: %v", err)
		}
		if req.Fingerprint != sched.Fingerprint() || req.Schema != evcache.SchemaVersion {
			t.Fatalf("200 for fingerprint/schema %q/%d", req.Fingerprint, req.Schema)
		}
		for _, r := range req.Put {
			if r.Key == "" {
				t.Fatal("200 for a batch with an empty key")
			}
		}
		if n := cache.Resident(); n > len(req.Put) {
			t.Fatalf("%d entries admitted from %d records", n, len(req.Put))
		}
	})
}

// failingStore is a tier that is down: every call errors.
type failingStore struct{}

var errTierDown = errors.New("tier down")

func (failingStore) Lookup(string, string) (evcache.Entry, bool, error) {
	return evcache.Entry{}, false, errTierDown
}
func (failingStore) StoreBatch(string, []evcache.Record) error  { return errTierDown }
func (failingStore) Missing(string, []string) ([]string, error) { return nil, errTierDown }

// TestHandlerStoreFailureIs5xx: the handler knows its cache only as an
// evcache.Store, and a Store that errors is a failed tier — answered
// 5xx, which the client reports as an error (feeding the caller's
// circuit breaker), never as a 200 carrying a zero entry or as a miss.
func TestHandlerStoreFailureIs5xx(t *testing.T) {
	hs := httptest.NewServer(fleetcache.Handler(failingStore{}))
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/v1/cache/G/k")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode < 500 {
		t.Errorf("GET over a failing store: status %s, want 5xx", resp.Status)
	}
	cl := fleetcache.New(hs.URL, hs.Client())
	if _, ok, err := cl.Lookup("G", "k"); ok || err == nil {
		t.Errorf("Lookup over a failing store = %v, %v; want an error", ok, err)
	}
	if err := cl.StoreBatch("G", []evcache.Record{{Key: "k", Entry: entry(1)}}); err == nil {
		t.Error("StoreBatch over a failing store succeeded")
	}
	if _, err := cl.Missing("G", []string{"k"}); err == nil {
		t.Error("Missing over a failing store succeeded")
	}
}

// TestRemoteUnreachable: connection errors surface as errors (for the
// circuit breaker), not as misses or panics.
func TestRemoteUnreachable(t *testing.T) {
	cl := fleetcache.New("http://127.0.0.1:1", nil) // nothing listens on port 1
	if _, _, err := cl.Lookup("G", "k"); err == nil {
		t.Error("Lookup against dead peer returned nil error")
	}
	if err := cl.StoreBatch("G", []evcache.Record{{Key: "k", Entry: entry(1)}}); err == nil {
		t.Error("StoreBatch against dead peer returned nil error")
	}
}

// TestTieredOverHTTP wires the full two-level composition over a real
// HTTP peer: local miss → read-through hit; local compute → write-behind
// lands on the peer.
func TestTieredOverHTTP(t *testing.T) {
	cl, peerCache := newPeer(t)
	peerCache.Put("G", "warm", entry(9))

	local, err := evcache.Open("")
	if err != nil {
		t.Fatal(err)
	}
	local.SetRemote(cl, evcache.RemoteOptions{})
	defer local.Close()

	do := func(key string, e evcache.Entry) (evcache.Entry, bool) {
		got, hit, _ := local.DoErr("G", key, func() (evcache.Entry, error) { return e, nil })
		return got, hit
	}
	// Read-through: no compute for a fleet-warm key.
	if e, hit := do("warm", entry(0)); !hit || e != entry(9) {
		t.Fatalf("read-through DoErr = %+v, %v", e, hit)
	}
	// Write-behind: a local compute becomes fleet-visible.
	do("cold", entry(5))
	local.SyncRemote()
	if got, ok := peerCache.Peek("G", "cold"); !ok || got != entry(5) {
		t.Errorf("peer cache after write-behind = %+v, %v", got, ok)
	}
	st := local.Stats()
	if st.NetHits != 1 || st.Computes != 1 || st.WriteBehindFlushed != 1 {
		t.Errorf("stats %+v: want 1 net hit, 1 compute, 1 flushed", st)
	}
}
