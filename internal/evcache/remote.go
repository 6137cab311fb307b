package evcache

import (
	"cmp"
	"sync"
	"time"

	"customfit/internal/obs"
)

// RemoteOptions tunes the remote tier attached by SetRemote: the zero
// value picks the defaults below, and only the package's tests set one.
type RemoteOptions struct {
	// queueDepth bounds the write-behind queue (default 4096). A full
	// queue drops new entries (counted on evcache.writebehind_dropped)
	// instead of ever blocking the evaluate hot path.
	queueDepth int
	// batchSize caps how many queued entries one flush coalesces
	// (default 256).
	batchSize int
	// failureThreshold is how many consecutive read-through failures
	// trip the circuit breaker (default 3).
	failureThreshold int
	// cooldown is how long a tripped breaker keeps the remote tier out
	// of the read path (default 30s). Write-behind keeps trying — its
	// failures only cost counters, never the job.
	cooldown time.Duration
}

func (o RemoteOptions) withDefaults() RemoteOptions {
	o.queueDepth = cmp.Or(o.queueDepth, 4096)
	o.batchSize = cmp.Or(o.batchSize, 256)
	o.failureThreshold = cmp.Or(o.failureThreshold, 3)
	o.cooldown = cmp.Or(o.cooldown, 30*time.Second)
	return o
}

// wbItem is one queued write-behind entry.
type wbItem struct {
	shard string
	key   string
	e     Entry
}

// remoteState is everything SetRemote attaches: the tier, its options,
// the write-behind machinery and the read-path circuit breaker.
type remoteState struct {
	store Store
	opts  RemoteOptions

	ch       chan wbItem
	sync     chan chan struct{}
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// SetRemote attaches a remote tier and starts its write-behind flusher.
// Call once, before the cache is used concurrently; the caller still
// owns the cache and must Close it (which drains the queue). Reads go
// local hit → remote read-through → compute; locally computed entries
// are enqueued for async batched write-behind. A failing remote only
// degrades the cache to local-only (counted, circuit-broken) — it never
// fails a lookup or a job.
func (c *Cache) SetRemote(r Store, opts RemoteOptions) {
	if r == nil {
		return
	}
	rs := &remoteState{
		store: r,
		opts:  opts.withDefaults(),
		sync:  make(chan chan struct{}),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	rs.ch = make(chan wbItem, rs.opts.queueDepth)
	c.remote = rs
	go c.writeBehindLoop(rs)
}

// remoteLookup is the read-through: consult the remote tier for a key
// both local levels missed. Failures count toward the circuit breaker;
// a tripped breaker skips the remote entirely for the cooldown, so a dead
// peer costs one timeout per threshold window, not one per lookup.
func (c *Cache) remoteLookup(shardName, key string) (Entry, bool) {
	rs := c.remote
	if rs == nil {
		return Entry{}, false
	}
	c.mu.Lock()
	down := time.Now().Before(c.netDownUntil)
	c.mu.Unlock()
	if down {
		return Entry{}, false
	}
	t0 := time.Now()
	e, ok, err := rs.store.Lookup(shardName, key)
	obs.GetHistogram("evcache.net_fetch_seconds").Observe(time.Since(t0).Seconds())
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.stats.NetErrors++
		obs.GetCounter("evcache.net_errors").Inc()
		if c.netFails++; c.netFails >= rs.opts.failureThreshold {
			c.netDownUntil = time.Now().Add(rs.opts.cooldown)
			c.netFails = 0
			obs.GetCounter("evcache.net_degraded").Inc()
		}
		return Entry{}, false
	}
	c.netFails = 0
	if ok {
		c.stats.NetHits++
		obs.GetCounter("evcache.net_hits").Inc()
		return e, true
	}
	c.stats.NetMisses++
	obs.GetCounter("evcache.net_misses").Inc()
	return Entry{}, false
}

// writeBehind enqueues one locally computed entry for async flush.
// Never blocks: a full queue drops the entry (the local tier still
// holds it; the fleet just re-computes it once somewhere else), and so
// does a stopped flusher — stop is checked on its own first, because a
// select that also offered the send could park the entry in a queue
// nobody drains any more and count it nowhere.
func (c *Cache) writeBehind(shardName, key string, e Entry) {
	rs := c.remote
	if rs == nil {
		return
	}
	select {
	case <-rs.stop:
	default:
		select {
		case rs.ch <- wbItem{shard: shardName, key: key, e: e}:
			return
		default:
		}
	}
	c.mu.Lock()
	c.stats.WriteBehindDropped++
	c.mu.Unlock()
	obs.GetCounter("evcache.writebehind_dropped").Inc()
}

// writeBehindLoop is the single flusher goroutine: it batches whatever
// is queued (coalescing bursts into per-shard StoreBatch calls) and
// services sync/stop barriers by draining first.
func (c *Cache) writeBehindLoop(rs *remoteState) {
	defer close(rs.done)
	for {
		select {
		case it := <-rs.ch:
			c.flushWB(rs, c.collectWB(rs, it))
		case ack := <-rs.sync:
			c.drainWB(rs)
			close(ack)
		case <-rs.stop:
			c.drainWB(rs)
			return
		}
	}
}

// collectWB coalesces everything already queued behind first (up to
// the batch size) into per-shard batches.
func (c *Cache) collectWB(rs *remoteState, first wbItem) map[string][]Record {
	batch := map[string][]Record{first.shard: {{Key: first.key, Entry: first.e}}}
	for n := 1; n < rs.opts.batchSize; n++ {
		select {
		case it := <-rs.ch:
			batch[it.shard] = append(batch[it.shard], Record{Key: it.key, Entry: it.e})
		default:
			return batch
		}
	}
	return batch
}

func (c *Cache) drainWB(rs *remoteState) {
	for {
		select {
		case it := <-rs.ch:
			c.flushWB(rs, c.collectWB(rs, it))
		default:
			return
		}
	}
}

// flushWB ships one coalesced batch. A failed shard batch is dropped
// and counted — the entries live on locally, and a retry storm against
// a dead peer would be worse than one fleet-side recompute.
func (c *Cache) flushWB(rs *remoteState, batch map[string][]Record) {
	for shard, recs := range batch {
		if err := rs.store.StoreBatch(shard, recs); err != nil {
			c.mu.Lock()
			c.stats.WriteBehindDropped += int64(len(recs))
			c.stats.NetErrors++
			c.mu.Unlock()
			obs.GetCounter("evcache.writebehind_dropped").Add(int64(len(recs)))
			obs.GetCounter("evcache.net_errors").Inc()
			continue
		}
		c.mu.Lock()
		c.stats.WriteBehindFlushed += int64(len(recs))
		c.mu.Unlock()
		obs.GetCounter("evcache.writebehind_flushes").Inc()
	}
}

// SyncRemote blocks until every write-behind entry enqueued before the
// call has been offered to the remote store (shutdown hooks and tests;
// the hot path never calls this).
func (c *Cache) SyncRemote() {
	rs := c.remote
	if rs == nil {
		return
	}
	ack := make(chan struct{})
	select {
	case rs.sync <- ack:
		<-ack
	case <-rs.done:
	}
}

// stopWriteBehind ends the flusher after a final drain (bounded wait).
func (c *Cache) stopWriteBehind() {
	rs := c.remote
	if rs == nil {
		return
	}
	rs.stopOnce.Do(func() { close(rs.stop) })
	select {
	case <-rs.done:
	case <-time.After(5 * time.Second):
	}
}
