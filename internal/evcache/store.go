package evcache

import "customfit/internal/obs"

// Record is one shard line on the wire and on disk: a cache key plus
// its entry. It is the unit the fleet protocol batches (see Store and
// internal/fleetcache).
type Record struct {
	Key string `json:"k"`
	Entry
}

// Store is the cache-tier contract: the local disk cache implements it
// (so a cfp-serve process can serve its cache to the fleet), and
// internal/fleetcache implements it over HTTP against another
// cfp-serve's /v1/cache endpoints. Composing the two — a local Cache
// with a remote Store attached via SetRemote — yields the fleet-wide
// two-level cache: local hit → remote read-through → compute, with
// async batched write-behind (see docs/PERFORMANCE.md).
type Store interface {
	// Lookup returns the entry for (shard, key) and whether it was
	// found. A non-nil error means the tier itself failed (unreachable,
	// version-refused) — not that the key is merely absent.
	Lookup(shard, key string) (Entry, bool, error)
	// StoreBatch admits a batch of records into shard. Admission is
	// terminal: a Store never forwards admitted records to its own
	// remote tier, so chained caches cannot echo entries in a loop.
	StoreBatch(shard string, recs []Record) error
	// Missing filters keys down to those the store does not hold
	// (batched has-checks, so a sender can skip what the far side
	// already has).
	Missing(shard string, keys []string) ([]string, error)
}

var _ Store = (*Cache)(nil)

// Lookup implements Store over the local cache (always a nil error —
// the local tier cannot be unreachable).
func (c *Cache) Lookup(shard, key string) (Entry, bool, error) {
	e, ok := c.Get(shard, key)
	return e, ok, nil
}

// StoreBatch admits records into the local cache: they are persisted
// like Put entries but never enqueued to the write-behind queue — the
// fleet sent them here, echoing them back would just bounce entries
// around the tier.
func (c *Cache) StoreBatch(shard string, recs []Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.loadLocked(shard)
	for _, r := range recs {
		if r.Key == "" {
			continue
		}
		c.insertLocked(s, r.Key, r.Entry, c.dir != "")
	}
	c.autoFlushLocked(shard, s)
	return nil
}

// Missing implements Store's batched has-check against the local cache.
func (c *Cache) Missing(shard string, keys []string) ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.loadLocked(shard)
	var out []string
	for _, k := range keys {
		if _, ok := s.index[k]; !ok {
			out = append(out, k)
		}
	}
	return out, nil
}

// Peek returns an entry without touching hit/miss accounting, LRU
// order, or the remote tier: a probe of what the local tier holds that
// leaves the cache's stats as they were.
func (c *Cache) Peek(shard, key string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.loadLocked(shard).index[key]; ok {
		return c.node(i).e, true
	}
	return Entry{}, false
}

// GetAll answers n lookups in one shard as one batch, all or nothing,
// under one acquisition of the cache's lock. key renders the key of
// lookup i into buf and returns it, the way DoErrBytes is handed one.
// When every key is resident, each lookup is accounted as DoErrBytes
// would have accounted it, in order — a hit counted, the entry made the
// most recently used — and hit is called with its entry. At the first
// key that is not resident the batch stops and reports covered false
// with nothing counted, no entry touched and hit never called (Peek's
// manners, so the caller can send the same lookups through DoErr with
// their accounting intact). The remote tier is not consulted. loaded
// reports whether this call read the shard's file.
//
// key and hit run under the cache's lock and must not call into the
// cache — any method of c called from them deadlocks. They are given a
// buffer, an index and an entry, and need nothing else.
func (c *Cache) GetAll(shard string, n int, key func(buf []byte, i int) []byte, hit func(i int, e Entry)) (covered, loaded bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	read := c.stats.BytesRead
	s := c.loadLocked(shard)
	loaded = c.stats.BytesRead != read
	if cap(c.batchSlots) < n {
		c.batchSlots = make([]int32, n)
	}
	slots := c.batchSlots[:n]
	for i := range slots {
		c.batchKey = key(c.batchKey[:0], i)
		slot, ok := s.index[string(c.batchKey)]
		if !ok {
			return false, loaded
		}
		slots[i] = slot
	}
	for i, slot := range slots {
		c.touchLocked(slot)
		hit(i, c.node(slot).e)
	}
	c.stats.Hits += int64(n)
	obs.GetCounter("evcache.hits").Add(int64(n))
	return true, loaded
}

// Resident returns the number of entries currently held in memory
// (what the LRU bounds; cfp-serve exports it as a gauge).
func (c *Cache) Resident() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}
