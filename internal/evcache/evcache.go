// Package evcache is the explorer's content-addressed evaluation
// cache, the one place a finished unroll sweep is kept: an in-memory
// LRU, in front of on-disk JSON-lines shards when opened on a
// directory, keyed by hashes that cover everything an evaluation sweep
// can observe — the kernel source, the unroll policy, the compiler
// fingerprint, the reference workload, and the target's backend
// signature. Every dse evaluation resolves through one (memory-only
// and private to the evaluator when none is attached), so the same
// lookup answers the second member of a signature class within a run
// and a re-run of the full design-space sweep against a warm
// directory, which is near-instant; an interrupted sweep resumes warm.
//
// Layout: one shard file per benchmark under the cache directory
// (`<bench>.jsonl`), each starting with a versioned header line.
// Loading a shard whose header does not match the current
// SchemaVersion silently discards it — a stale schema self-invalidates
// rather than poisoning results. Shards are rewritten wholesale
// through a temp file plus atomic rename, so a crashed or interrupted
// writer can never leave a half-written shard behind: readers see
// either the old complete file or the new one.
//
// A shard line is json.Marshal of a Record and is read back as
// encoding/json reads it; the bytes on disk are what they have been
// since SchemaVersion 1. Nearly every line a cache reads it also wrote,
// though, in one fixed shape — {"k":"…","u":N,"c":N,"s":N[,"f":true],"r":N}
// with a key JSON spells as itself — so that shape is written and read
// by hand (codec.go), and encoding/json keeps everything else: a key
// that needs an escape, a line edited by hand or written by another
// program, junk. The rule is all or nothing per line, so which lines a
// shard yields, which count as corrupt and what each decodes to are
// exactly encoding/json's (FuzzShardLine holds the two equal). A shard
// is read whole, lines of any length, and the keys of its entries are
// slices of that one read.
//
// In memory every resident entry lives in one slab of nodes linked
// into an LRU ring by index, with one key → slot map per shard: loading
// a shard allocates its text, its map and room in the slab, not
// something per entry. The slab grows by fixed-size chunks, so a node
// never moves and a load never copies the nodes already resident.
// DoErrBytes and GetAll look a key up where it was rendered, so a hit
// makes no string.
//
// Concurrency: every method is safe for concurrent use. DoErr gives
// lookups singleflight semantics — workers racing on the same cold key
// share one compute instead of duplicating the miss.
//
// Fleet tier: SetRemote attaches a Store (typically
// internal/fleetcache's HTTP client against a cfp-serve peer) and the
// cache becomes the local level of a fleet-wide two-level cache — a
// local miss reads through the remote before computing, and local
// computes are shipped back via an async bounded write-behind queue
// that never blocks the evaluate hot path. A failing remote degrades
// the cache to local-only behind a circuit breaker; it never fails a
// lookup. See docs/PERFORMANCE.md.
//
// Telemetry (when an obs collector is installed): `evcache.hits`,
// `evcache.misses`, `evcache.coalesced` (misses absorbed by an
// in-flight compute), `evcache.bytes` (shard bytes read + written),
// `evcache.invalidated` (shards discarded on schema mismatch),
// `evcache.corrupt_lines` (undecodable shard lines skipped at load,
// typically a line truncated by a crash mid-flush), `evcache.shard_loads`
// (shard files read) and the `evcache.load_seconds` histogram (reading
// and decoding one). The fleet tier
// adds `evcache.net_hits`, `evcache.net_misses`, `evcache.net_errors`,
// `evcache.net_degraded` (circuit-breaker trips),
// `evcache.writebehind_flushes`, `evcache.writebehind_dropped` and the
// `evcache.net_fetch_seconds` latency histogram (p50/p95 via the obs
// reservoir).
package evcache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
	"unsafe"

	"customfit/internal/obs"
)

// SchemaVersion is stamped into every shard header. Bump it whenever
// the Entry encoding or the key derivation changes shape; old shards
// are then ignored on load instead of being misread.
const SchemaVersion = 1

// headerMagic identifies a shard file as ours.
const headerMagic = "cfp-evcache"

// headerLine is the first line of every shard Flush writes (Marshal of
// a string and an int does not fail).
var headerLine, _ = json.Marshal(header{Magic: headerMagic, Schema: SchemaVersion})

// slabChunk is how many nodes one chunk of the slab holds (20 KiB, what
// Open pays for the first): a power of two, so a slot number splits
// into chunk and offset by a shift and a mask.
const slabChunk = 256

// autoFlushDirty bounds how many unflushed entries a shard may pin in
// memory before it is written back inline.
const autoFlushDirty = 4096

// DefaultMaxEntries is the default in-memory LRU capacity. Entries are
// a few dozen bytes, so the default comfortably holds several
// full-space sweeps; lower it with SetMaxEntries for constrained runs.
const DefaultMaxEntries = 1 << 18

// Entry is one cached evaluation sweep: the architecture-signature
// invariant outcome of compiling a kernel at every unroll factor until
// spill. Cycle-time derating and datapath cost are deliberately
// excluded — both are recomputed from models outside the backend, so
// model changes never invalidate the cache.
type Entry struct {
	Unroll  int   `json:"u"`
	Cycles  int64 `json:"c"`
	Spilled int   `json:"s"`
	Failed  bool  `json:"f,omitempty"`
	// Runs is how many backend compilations the sweep performed, so a
	// cache hit can re-count them as logical runs (the paper's Table 3
	// accounting).
	Runs int64 `json:"r"`
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits      int64
	Misses    int64
	Coalesced int64 // misses served by waiting on an in-flight compute
	BytesRead int64
	BytesWrit int64
	// CorruptLines counts shard lines skipped at load because they did
	// not decode (typically one truncated trailing line from a crash
	// mid-flush). The rest of the shard still loads.
	CorruptLines int64
	// Computes counts DoErr calls that fell through both cache
	// levels and ran the compute here — the fleet test's "backend
	// compilations actually performed by this process" signal.
	Computes int64
	// NetHits/NetMisses/NetErrors count remote-tier read-throughs (only
	// meaningful after SetRemote). Errors also feed the circuit breaker
	// that degrades the cache to local-only.
	NetHits   int64
	NetMisses int64
	NetErrors int64
	// WriteBehindFlushed counts entries shipped to the remote tier;
	// WriteBehindDropped counts entries dropped because the bounded
	// queue was full or the remote refused the batch.
	WriteBehindFlushed int64
	WriteBehindDropped int64
}

// Cache is the two-level store. The zero value is not usable; call
// Open.
type Cache struct {
	dir string // "" = memory-only (no persistence)

	mu     sync.Mutex
	max    int
	shards map[string]*shard
	// slab is where every resident entry lives, in chunks that are never
	// moved or given back, linked into one LRU ring by slot number (see
	// node): slot 0 is the ring's root (its next the most recently used
	// entry, its prev the least), used counts the slots ever handed out,
	// free heads the list of vacated ones, chained through next.
	slab  []*[slabChunk]node
	used  int32
	free  int32
	n     int // resident entries
	stats Stats
	// Scratch of GetAll, kept at the size it grew to: the slots of a
	// batch's keys, and the buffer its keys are rendered into.
	batchSlots []int32
	batchKey   []byte

	// remote is the optional network tier (SetRemote), read without the
	// lock — it is set once before concurrent use.
	remote *remoteState
	// Read-path circuit breaker (under mu): consecutive failures and
	// the deadline until which the remote is skipped.
	netFails     int
	netDownUntil time.Time
}

// node is one resident entry, linked into the LRU ring.
type node struct {
	key        string // of a loaded entry: a slice of the shard file's text
	e          Entry
	shard      *shard
	prev, next int32
	dirty      bool // not yet persisted (always false when memory-only)
}

// shard is the in-memory view of one on-disk shard file.
type shard struct {
	loaded bool
	index  map[string]int32 // key -> slot in Cache.nodes
	flight map[string]*flight
	dirty  int // unflushed entries
}

// flight coordinates singleflight computes: waiters block on done and
// then read e (or err, when the compute aborted without producing an
// entry — nothing was stored, and waiters retry or propagate).
type flight struct {
	done chan struct{}
	e    Entry
	err  error
}

type header struct {
	Magic  string `json:"evcache"`
	Schema int    `json:"schema"`
}

// Open returns a cache persisting under dir, creating the directory if
// needed. An empty dir yields a memory-only cache (useful for tests
// and single-process warm sharing).
func Open(dir string) (*Cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("evcache: %w", err)
		}
	}
	return &Cache{
		dir:    dir,
		max:    DefaultMaxEntries,
		shards: map[string]*shard{},
		slab:   []*[slabChunk]node{new([slabChunk]node)},
		used:   1,
	}, nil
}

// node returns slot i of the slab. The pointer stays good while the
// slot is resident: chunks do not move.
func (c *Cache) node(i int32) *node {
	return &c.slab[uint32(i)/slabChunk][uint32(i)%slabChunk]
}

// SetMaxEntries adjusts the in-memory LRU capacity. Dirty entries are
// pinned until flushed, so the cache may transiently exceed the cap by
// up to the auto-flush threshold per shard.
func (c *Cache) SetMaxEntries(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 1 {
		n = 1
	}
	c.max = n
	c.evictLocked()
}

// Stats returns a snapshot of hit/miss/IO counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Get returns the cached entry for (shardName, key), consulting memory
// first and the shard file on first touch of the shard.
func (c *Cache) Get(shardName, key string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.loadLocked(shardName).index[key]; ok {
		return c.hitLocked(i), true
	}
	c.missLocked()
	return Entry{}, false
}

// Put stores an entry, scheduling it for persistence on the next
// flush (or inline once the shard accumulates enough dirty entries).
// With a remote tier attached, the entry is also enqueued for
// write-behind: a direct Put is new local data the fleet has not seen.
func (c *Cache) Put(shardName, key string, e Entry) {
	c.mu.Lock()
	s := c.loadLocked(shardName)
	c.insertLocked(s, key, e, c.dir != "")
	c.autoFlushLocked(shardName, s)
	c.mu.Unlock()
	c.writeBehind(shardName, key, e)
}

// DoErr returns the cached entry for (shardName, key), computing and
// storing it on a miss. Concurrent callers racing on the same cold key
// share a single compute: the first runs it, the rest block and reuse
// its result. The boolean reports whether the entry came from the
// cache (including a shared in-flight compute) rather than this
// caller's own compute. A compute can abort (typically on context
// cancellation): one returning an error stores nothing — the key
// stays cold, so a later caller recomputes it cleanly. Waiters
// coalesced onto an aborted compute retry the lookup themselves rather
// than inheriting the aborter's error; a waiter whose own compute then
// aborts propagates its own error.
func (c *Cache) DoErr(shardName, key string, compute func() (Entry, error)) (Entry, bool, error) {
	for {
		c.mu.Lock()
		s := c.loadLocked(shardName)
		if i, ok := s.index[key]; ok {
			e := c.hitLocked(i)
			c.mu.Unlock()
			return e, true, nil
		}
		if f, ok := s.flight[key]; ok {
			c.stats.Coalesced++
			obs.GetCounter("evcache.coalesced").Inc()
			c.mu.Unlock()
			<-f.done
			if f.err != nil {
				continue // aborted in flight: retry with our own compute
			}
			return f.e, true, nil
		}
		f := &flight{done: make(chan struct{})}
		if s.flight == nil {
			s.flight = map[string]*flight{}
		}
		s.flight[key] = f
		c.missLocked()
		c.mu.Unlock()

		// Read through the remote tier before computing: a sweep compiled
		// anywhere in the fleet is fetched, not recompiled. The fetch
		// rides the singleflight, so racing callers share one network
		// round trip exactly as they would share one compute. Remote hits
		// are admitted locally (persisted like any entry) but never
		// enqueued for write-behind — the fleet already has them.
		if re, ok := c.remoteLookup(shardName, key); ok {
			f.e = re
			c.settleFlight(shardName, key, f, true)
			return re, true, nil
		}

		f.e, f.err = compute()
		c.mu.Lock()
		c.stats.Computes++
		c.mu.Unlock()
		c.settleFlight(shardName, key, f, f.err == nil)
		if f.err == nil {
			c.writeBehind(shardName, key, f.e)
		}
		return f.e, false, f.err
	}
}

// DoErrBytes is DoErr for a key the caller has rendered into a buffer
// of its own: a hit — every lookup of a warm run — reads the buffer
// where it stands, and only a miss makes a string of it.
func (c *Cache) DoErrBytes(shardName string, key []byte, compute func() (Entry, error)) (Entry, bool, error) {
	c.mu.Lock()
	if i, ok := c.loadLocked(shardName).index[string(key)]; ok {
		e := c.hitLocked(i)
		c.mu.Unlock()
		return e, true, nil
	}
	c.mu.Unlock()
	return c.DoErr(shardName, string(key), compute)
}

// settleFlight stores a finished flight's entry (when store is set),
// clears the flight and wakes waiters.
func (c *Cache) settleFlight(shardName, key string, f *flight, store bool) {
	c.mu.Lock()
	s := c.loadLocked(shardName)
	if store {
		c.insertLocked(s, key, f.e, c.dir != "")
	}
	delete(s.flight, key)
	c.autoFlushLocked(shardName, s)
	c.mu.Unlock()
	close(f.done)
}

// Flush persists every dirty shard via temp-file + atomic rename.
func (c *Cache) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	for name, s := range c.shards {
		if s.dirty == 0 {
			continue
		}
		if err := c.flushShardLocked(name, s); err != nil {
			return err
		}
	}
	return nil
}

// Close drains the write-behind queue (when a remote tier is
// attached), flushes dirty shards, and renders further writes
// best-effort-only. It is the caller's shutdown hook; the cache
// remains readable afterwards.
func (c *Cache) Close() error {
	c.stopWriteBehind()
	return c.Flush()
}

// hitLocked counts a hit on the resident entry in slot i, makes it the
// most recently used and returns it.
func (c *Cache) hitLocked(i int32) Entry {
	c.touchLocked(i)
	c.stats.Hits++
	obs.GetCounter("evcache.hits").Inc()
	return c.node(i).e
}

func (c *Cache) missLocked() {
	c.stats.Misses++
	obs.GetCounter("evcache.misses").Inc()
}

// loadLocked returns shardName's in-memory view, reading its file on
// first touch. Unreadable files, foreign files and stale schemas are
// treated as an empty shard.
func (c *Cache) loadLocked(name string) *shard {
	s := c.shards[name]
	if s == nil {
		s = &shard{}
		c.shards[name] = s
	}
	if s.loaded {
		return s
	}
	s.loaded = true
	if c.dir != "" {
		t0 := time.Now()
		if c.readInLocked(s, name) {
			obs.GetCounter("evcache.shard_loads").Inc()
			obs.GetHistogram("evcache.load_seconds").Observe(time.Since(t0).Seconds())
		}
	}
	if s.index == nil {
		s.index = map[string]int32{}
	}
	return s
}

// readInLocked fills the still empty s from name's file and reports
// whether there was a file to read.
func (c *Cache) readInLocked(s *shard, name string) bool {
	head, body, ok := c.readShard(name)
	if !ok {
		return false // no shard on disk yet
	}
	if !validHeader(head) {
		obs.GetCounter("evcache.invalidated").Inc()
		return true // stale or foreign: self-invalidate by ignoring it
	}
	// Room in the index for every line at once rather than by doubling
	// on the way there.
	s.index = make(map[string]int32, min(strings.Count(body, "\n")+1, c.max))
	read := int64(len(head))
	for body != "" {
		var line string
		line, body = cutLine(body)
		// A torn tail line (a crash mid-flush before the atomic rename
		// landed, or filesystem truncation) or junk is skipped, not
		// fatal: one bad line must never cost the rest of the shard.
		r, ok := decodeRecord(line)
		if !ok {
			c.stats.CorruptLines++
			obs.GetCounter("evcache.corrupt_lines").Inc()
			continue
		}
		read += int64(len(line))
		c.insertLocked(s, r.Key, r.Entry, false)
	}
	c.stats.BytesRead += read
	obs.GetCounter("evcache.bytes").Add(read)
	return true
}

// readShard reads name's file whole — a line may be any length — and
// returns its header line and the text of the lines after it. ok is
// false when there is no file or nothing in it.
func (c *Cache) readShard(name string) (head, body string, ok bool) {
	data, err := os.ReadFile(c.shardPath(name))
	if err != nil || len(data) == 0 {
		return "", "", false
	}
	// The keys of the lines read are slices of the file's bytes, viewed
	// as a string and not copied into one. Safe because data is written
	// by nobody after os.ReadFile returned it: this function drops the
	// only []byte reference to it here.
	head, body = cutLine(unsafe.String(&data[0], len(data)))
	return head, body, true
}

// cutLine cuts the first line off text: up to the first "\n" or, on a
// last line without one, the end of the text; a "\r" before that is
// dropped with it.
func cutLine(text string) (line, rest string) {
	line, rest, _ = strings.Cut(text, "\n")
	return strings.TrimSuffix(line, "\r"), rest
}

// validHeader reports whether line is the header of a shard this
// version reads: the line Flush writes, or any other spelling of it
// encoding/json reads the same.
func validHeader(line string) bool {
	if line == string(headerLine) {
		return true
	}
	var h header
	return json.Unmarshal([]byte(line), &h) == nil && h.Magic == headerMagic && h.Schema == SchemaVersion
}

// insertLocked adds or refreshes one entry and evicts past capacity.
func (c *Cache) insertLocked(s *shard, key string, e Entry, dirty bool) {
	if i, ok := s.index[key]; ok {
		nd := c.node(i)
		if dirty && !nd.dirty {
			s.dirty++
		}
		nd.e = e
		nd.dirty = nd.dirty || dirty
		c.touchLocked(i)
		return
	}
	i := c.free
	if i != 0 {
		c.free = c.node(i).next
	} else {
		i = c.used
		if int(i) == len(c.slab)*slabChunk {
			c.slab = append(c.slab, new([slabChunk]node))
		}
		c.used++
	}
	*c.node(i) = node{key: key, e: e, shard: s, dirty: dirty}
	c.pushFrontLocked(i)
	s.index[key] = i
	c.n++
	if dirty {
		s.dirty++
	}
	c.evictLocked()
}

// pushFrontLocked links the unlinked slot i in as the most recently
// used entry.
func (c *Cache) pushFrontLocked(i int32) {
	root, nd := c.node(0), c.node(i)
	first := root.next
	nd.prev, nd.next = 0, first
	c.node(first).prev = i
	root.next = i
}

// unlinkLocked takes slot i out of the LRU ring.
func (c *Cache) unlinkLocked(i int32) {
	nd := c.node(i)
	c.node(nd.prev).next = nd.next
	c.node(nd.next).prev = nd.prev
}

// touchLocked makes the resident entry in slot i the most recently used.
func (c *Cache) touchLocked(i int32) {
	if c.node(0).next != i {
		c.unlinkLocked(i)
		c.pushFrontLocked(i)
	}
}

// evictLocked drops least-recently-used clean entries down to
// capacity. Dirty entries are pinned (their data exists nowhere else)
// until a flush cleans them.
func (c *Cache) evictLocked() {
	for i := c.node(0).prev; i != 0 && c.n > c.max; {
		nd := c.node(i)
		prev := nd.prev
		if !nd.dirty {
			c.unlinkLocked(i)
			delete(nd.shard.index, nd.key)
			*nd = node{next: c.free}
			c.free = i
			c.n--
		}
		i = prev
	}
}

// autoFlushLocked writes a shard back once it accumulates enough
// unflushed entries, bounding pinned memory on long sweeps.
func (c *Cache) autoFlushLocked(name string, s *shard) {
	if c.dir == "" || s.dirty < autoFlushDirty {
		return
	}
	// Flush failures here are deferred to the explicit Flush/Close,
	// which reports them; the entries stay dirty and pinned.
	_ = c.flushShardLocked(name, s)
}

// flushShardLocked rewrites one shard: the on-disk records (which may
// include entries long evicted from memory) merged with every resident
// entry, written to a temp file and atomically renamed into place.
func (c *Cache) flushShardLocked(name string, s *shard) error {
	head, body, ok := c.readShard(name)
	if !ok || !validHeader(head) {
		body = ""
	}
	// Disk order, then new keys; a key's last value wins in its first
	// place.
	onDisk := len(body)
	room := strings.Count(body, "\n") + 1 + len(s.index)
	recs := make([]Record, 0, room)
	at := make(map[string]int, room)
	merge := func(key string, e Entry) {
		if i, ok := at[key]; ok {
			recs[i].Entry = e
			return
		}
		at[key] = len(recs)
		recs = append(recs, Record{Key: key, Entry: e})
	}
	for body != "" {
		var line string
		line, body = cutLine(body)
		if r, ok := decodeRecord(line); ok {
			merge(r.Key, r.Entry)
		}
	}
	for key, i := range s.index {
		merge(key, c.node(i).e)
	}

	out := append(append(make([]byte, 0, onDisk+len(headerLine)+1), headerLine...), '\n')
	var err error
	for _, r := range recs {
		if out, err = appendRecord(out, r.Key, r.Entry); err != nil {
			return fmt.Errorf("evcache: flush %s: %w", name, err)
		}
		out = append(out, '\n')
	}

	tmp, err := os.CreateTemp(c.dir, "."+sanitize(name)+".tmp-*")
	if err != nil {
		return fmt.Errorf("evcache: flush %s: %w", name, err)
	}
	_, err = tmp.Write(out)
	if err == nil {
		// Durability, step 1: the data must be on stable storage before
		// the rename can publish it.
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), c.shardPath(name))
	}
	if err == nil {
		// Durability, step 2: the rename itself is atomic but not
		// durable until the directory is fsynced — without this a crash
		// right after Flush could lose the whole renamed shard file.
		err = syncDir(c.dir)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("evcache: flush %s: %w", name, err)
	}
	c.stats.BytesWrit += int64(len(out))
	obs.GetCounter("evcache.bytes").Add(int64(len(out)))
	for _, i := range s.index {
		c.node(i).dirty = false
	}
	s.dirty = 0
	c.evictLocked() // formerly pinned entries may now be evictable
	return nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry
// is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

func (c *Cache) shardPath(name string) string {
	return filepath.Join(c.dir, sanitize(name)+".jsonl")
}

// sanitize maps a shard (benchmark) name onto a safe file stem.
func sanitize(name string) string {
	if name == "" {
		return "_"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}
