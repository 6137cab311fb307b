package serve

import (
	"fmt"
	"net/http"
	"sync"

	"customfit/internal/evcache"
	"customfit/internal/fleetcache"
	"customfit/internal/obs"
	"customfit/internal/sched"
)

// This file is the serving side of the fleet-wide evaluation cache
// (see internal/fleetcache for the protocol and client): two endpoints
// exposing Options.Cache to peers, plus reference-counted GC keeping a
// long-lived server's resident entries bounded by what recent jobs
// actually touch.

// handleCacheGet serves GET /v1/cache/{shard}/{key}. Every response
// carries the backend fingerprint so clients can refuse skewed
// entries; a server without a cache answers 404 — to a read-through
// client that is just a miss.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(fleetcache.FingerprintHeader, sched.Fingerprint())
	if s.opts.Cache == nil {
		writeErr(w, http.StatusNotFound, "no evaluation cache attached")
		return
	}
	shard, key := r.PathValue("shard"), r.PathValue("key")
	e, ok := s.opts.Cache.Get(shard, key)
	if !ok {
		obs.GetCounter("serve.cache_get_misses").Inc()
		writeErr(w, http.StatusNotFound, "no such entry")
		return
	}
	obs.GetCounter("serve.cache_gets").Inc()
	s.noteCacheUse(shard)
	writeJSON(w, http.StatusOK, e)
}

// handleCachePut serves POST /v1/cache/{shard}: a batched put and/or
// has-check (fleetcache.PutRequest). Version-skewed batches are
// refused with 409 — the cache-tier analogue of the coordinator
// refusing fingerprint-mismatched workers.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	if s.opts.Cache == nil {
		writeErr(w, http.StatusNotFound, "no evaluation cache attached")
		return
	}
	var req fleetcache.PutRequest
	if !decodeJSON(w, r, maxCachePutBytes, &req) {
		return
	}
	if req.Fingerprint != sched.Fingerprint() || req.Schema != evcache.SchemaVersion {
		obs.GetCounter("serve.cache_put_refused").Inc()
		writeErr(w, http.StatusConflict, fmt.Sprintf(
			"cache admission refused: sender fingerprint/schema %q/%d vs server %q/%d (mixed backends would poison fleet results)",
			req.Fingerprint, req.Schema, sched.Fingerprint(), evcache.SchemaVersion))
		return
	}
	shard := r.PathValue("shard")
	resp := fleetcache.PutResponse{}
	if len(req.Put) > 0 {
		// The local store's StoreBatch cannot fail.
		_ = s.opts.Cache.StoreBatch(shard, req.Put)
		resp.Accepted = len(req.Put)
		obs.GetCounter("serve.cache_puts").Add(int64(len(req.Put)))
	}
	if len(req.Has) > 0 {
		resp.Missing, _ = s.opts.Cache.Missing(shard, req.Has)
	}
	s.noteCacheUse(shard)
	writeJSON(w, http.StatusOK, resp)
}

// cacheGC reference-counts shard use over a sliding window of recent
// jobs (explore/fit jobs reference their benchmarks' shards; cache
// endpoint traffic references the shard it touches). When the shared
// cache's resident entries exceed the budget, shards nothing in the
// window references are dropped whole — entries a live fleet still
// wants stay hot, abandoned job residue is reclaimed.
type cacheGC struct {
	limit int // resident-entry budget

	mu     sync.Mutex
	window []map[string]bool // ring: one slot per recent reference set
	next   int
	refs   map[string]int // shard -> live window slots referencing it
}

func newCacheGC(limit, jobs int) *cacheGC {
	if limit <= 0 {
		return nil
	}
	if jobs <= 0 {
		jobs = 32
	}
	return &cacheGC{limit: limit, window: make([]map[string]bool, jobs), refs: map[string]int{}}
}

// note records one reference set, retiring the oldest window slot.
func (g *cacheGC) note(shards ...string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for sh := range g.window[g.next] {
		if g.refs[sh]--; g.refs[sh] <= 0 {
			delete(g.refs, sh)
		}
	}
	cur := make(map[string]bool, len(shards))
	for _, sh := range shards {
		if !cur[sh] {
			cur[sh] = true
			g.refs[sh]++
		}
	}
	g.window[g.next] = cur
	g.next = (g.next + 1) % len(g.window)
}

// unreferenced filters names down to shards with zero window refs.
func (g *cacheGC) unreferenced(names []string) []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []string
	for _, n := range names {
		if g.refs[n] == 0 {
			out = append(out, n)
		}
	}
	return out
}

// noteCacheUse records shard references from one job or cache request
// and, past the resident budget, drops unreferenced shards until back
// under it (or none are droppable — referenced shards are never
// dropped, so a hot working set larger than the budget stays whole).
func (s *Server) noteCacheUse(shards ...string) {
	if s.gc == nil || s.opts.Cache == nil {
		return
	}
	s.gc.note(shards...)
	cache := s.opts.Cache
	if cache.Resident() <= s.gc.limit {
		return
	}
	for _, name := range s.gc.unreferenced(cache.ShardNames()) {
		if cache.Resident() <= s.gc.limit {
			break
		}
		if err := cache.DropShard(name); err == nil {
			obs.GetCounter("serve.cache_gc_shards").Inc()
			s.logger().Debug("cache shard dropped by GC").Str("shard", name).Log()
		}
	}
}
