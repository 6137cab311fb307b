package evcache

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// stubStore is a controllable remote tier for the two-level tests.
type stubStore struct {
	mu      sync.Mutex
	entries map[string]Entry // shard+"\x00"+key
	lookups int
	puts    int
	fail    bool // every call errors
}

func newStubStore() *stubStore { return &stubStore{entries: map[string]Entry{}} }

func (s *stubStore) Lookup(shard, key string) (Entry, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lookups++
	if s.fail {
		return Entry{}, false, errors.New("stub: remote down")
	}
	e, ok := s.entries[shard+"\x00"+key]
	return e, ok, nil
}

func (s *stubStore) StoreBatch(shard string, recs []Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	if s.fail {
		return errors.New("stub: remote down")
	}
	for _, r := range recs {
		s.entries[shard+"\x00"+r.Key] = r.Entry
	}
	return nil
}

func (s *stubStore) Missing(shard string, keys []string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail {
		return nil, errors.New("stub: remote down")
	}
	var out []string
	for _, k := range keys {
		if _, ok := s.entries[shard+"\x00"+k]; !ok {
			out = append(out, k)
		}
	}
	return out, nil
}

func (s *stubStore) set(shard, key string, e Entry) {
	s.mu.Lock()
	s.entries[shard+"\x00"+key] = e
	s.mu.Unlock()
}

func (s *stubStore) get(shard, key string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[shard+"\x00"+key]
	return e, ok
}

func (s *stubStore) setFail(v bool) {
	s.mu.Lock()
	s.fail = v
	s.mu.Unlock()
}

func (s *stubStore) calls() (lookups, puts int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lookups, s.puts
}

func TestStoreInterfaceRoundtrip(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Key: "k1", Entry: testEntry(1)},
		{Key: "k2", Entry: testEntry(2)},
		{Key: "", Entry: testEntry(3)}, // empty keys are skipped
	}
	if err := c.StoreBatch("G", recs); err != nil {
		t.Fatal(err)
	}
	if e, ok, lerr := c.Lookup("G", "k1"); !ok || lerr != nil || e != testEntry(1) {
		t.Fatalf("Lookup k1 = %+v, %v, %v", e, ok, lerr)
	}
	if e, ok := c.Peek("G", "k2"); !ok || e != testEntry(2) {
		t.Fatalf("Peek k2 = %+v, %v", e, ok)
	}
	miss, err := c.Missing("G", []string{"k1", "k2", "k3"})
	if err != nil || len(miss) != 1 || miss[0] != "k3" {
		t.Fatalf("Missing = %v, %v; want [k3]", miss, err)
	}
	if n := c.Resident(); n != 2 {
		t.Errorf("Resident = %d, want 2", n)
	}
	// Admitted records persist like Put entries.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(c.dir)
	if err != nil {
		t.Fatal(err)
	}
	if !holds(c2, "G", "k1") || !holds(c2, "G", "k2") {
		t.Error("StoreBatch records lost across reopen")
	}
}

// TestDurableReopenAfterFlush covers the fsync'd flush path end to end:
// after Flush returns, a fresh Open must see every record — the flush
// syncs the shard file and its directory, so the rename is durable, not
// merely buffered.
func TestDurableReopenAfterFlush(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		c.Put("G", fmt.Sprintf("k%d", i), testEntry(i))
		c.Put("DH", fmt.Sprintf("k%d", i), testEntry(i+n))
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Deliberately NOT Close: the flush alone must be durable.
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if e, ok := c2.Get("G", fmt.Sprintf("k%d", i)); !ok || e != testEntry(i) {
			t.Fatalf("G/k%d = %+v, %v after flush+reopen", i, e, ok)
		}
		if e, ok := c2.Get("DH", fmt.Sprintf("k%d", i)); !ok || e != testEntry(i+n) {
			t.Fatalf("DH/k%d = %+v, %v after flush+reopen", i, e, ok)
		}
	}
	if st := c2.Stats(); st.Misses != 0 {
		t.Errorf("reopen stats %+v: want full coverage, zero misses", st)
	}
}

func TestReadThroughHit(t *testing.T) {
	c, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	remote := newStubStore()
	remote.set("G", "warm", testEntry(7))
	c.SetRemote(remote, RemoteOptions{})
	defer c.Close()

	computes := 0
	e, hit := do(c, "G", "warm", func() Entry {
		computes++
		return testEntry(999)
	})
	if computes != 0 {
		t.Fatalf("compute ran %d times for a remote-warm key", computes)
	}
	if !hit || e != testEntry(7) {
		t.Fatalf("Do = %+v, hit=%v; want remote entry, hit", e, hit)
	}
	// The entry is now local: the next lookup is a local hit, no net.
	lookupsBefore, _ := remote.calls()
	if e, ok := c.Get("G", "warm"); !ok || e != testEntry(7) {
		t.Fatal("read-through entry not admitted locally")
	}
	if lookupsAfter, _ := remote.calls(); lookupsAfter != lookupsBefore {
		t.Error("local hit still consulted the remote")
	}
	st := c.Stats()
	if st.NetHits != 1 || st.Computes != 0 {
		t.Errorf("stats %+v: want 1 net hit, 0 computes", st)
	}
	// A remote hit must not echo back over write-behind.
	c.SyncRemote()
	if _, puts := remote.calls(); puts != 0 {
		t.Errorf("remote hit echoed back as %d put batches", puts)
	}
}

func TestWriteBehindPropagates(t *testing.T) {
	c, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	remote := newStubStore()
	c.SetRemote(remote, RemoteOptions{})
	defer c.Close()

	e, hit := do(c, "G", "cold", func() Entry { return testEntry(3) })
	if hit || e != testEntry(3) {
		t.Fatalf("Do = %+v, hit=%v; want computed miss", e, hit)
	}
	c.Put("G", "direct", testEntry(4))
	c.SyncRemote()
	if got, ok := remote.get("G", "cold"); !ok || got != testEntry(3) {
		t.Errorf("computed entry not written behind: %+v, %v", got, ok)
	}
	if got, ok := remote.get("G", "direct"); !ok || got != testEntry(4) {
		t.Errorf("Put entry not written behind: %+v, %v", got, ok)
	}
	st := c.Stats()
	if st.NetMisses != 1 || st.Computes != 1 || st.WriteBehindFlushed != 2 {
		t.Errorf("stats %+v: want 1 net miss, 1 compute, 2 flushed", st)
	}
}

// TestRemoteUnavailableDegrades covers the required failure mode: a dead
// remote never fails a job — lookups compute locally, errors are counted,
// and the circuit breaker stops consulting the peer after the threshold.
func TestRemoteUnavailableDegrades(t *testing.T) {
	c, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	remote := newStubStore()
	remote.setFail(true)
	c.SetRemote(remote, RemoteOptions{failureThreshold: 3, cooldown: time.Hour})
	defer c.Close()

	for i := 0; i < 10; i++ {
		e, hit := do(c, "G", fmt.Sprintf("k%d", i), func() Entry { return testEntry(i) })
		if hit || e != testEntry(i) {
			t.Fatalf("k%d: Do = %+v, hit=%v with remote down", i, e, hit)
		}
	}
	lookups, _ := remote.calls()
	if lookups != 3 {
		t.Errorf("remote consulted %d times, want exactly failureThreshold=3 before the breaker trips", lookups)
	}
	st := c.Stats()
	if st.NetErrors < 3 || st.Computes != 10 {
		t.Errorf("stats %+v: want >=3 net errors, 10 computes", st)
	}

	// Recovery: a fresh cache (cooldown elapsed is equivalent) sees the
	// healed remote again.
	remote.setFail(false)
	remote.set("G", "healed", testEntry(42))
	c2, _ := Open("")
	c2.SetRemote(remote, RemoteOptions{})
	defer c2.Close()
	if e, hit := do(c2, "G", "healed", func() Entry { return testEntry(0) }); !hit || e != testEntry(42) {
		t.Errorf("healed remote not consulted: %+v, %v", e, hit)
	}
}

// TestWriteBehindFailureCounted: write-behind failures cost counters,
// never the job, and never block.
func TestWriteBehindFailureCounted(t *testing.T) {
	c, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	remote := newStubStore()
	remote.setFail(true)
	c.SetRemote(remote, RemoteOptions{})

	c.Put("G", "k", testEntry(1))
	c.SyncRemote()
	st := c.Stats()
	if st.WriteBehindDropped != 1 || st.WriteBehindFlushed != 0 {
		t.Errorf("stats %+v: want 1 dropped, 0 flushed with remote down", st)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTierConcurrentRace exercises read-through, write-behind, direct
// puts and batch admission concurrently — the -race coverage the
// fleet tier requires. Assertions are minimal; the value is the
// interleaving under the race detector.
func TestTierConcurrentRace(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	remote := newStubStore()
	for i := 0; i < 25; i++ {
		remote.set("G", fmt.Sprintf("warm%d", i), testEntry(i))
	}
	c.SetRemote(remote, RemoteOptions{queueDepth: 64, batchSize: 8})

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				shard := []string{"G", "DH"}[i%2]
				switch i % 5 {
				case 0: // read-through candidates
					do(c, "G", fmt.Sprintf("warm%d", i%25), func() Entry { return testEntry(i) })
				case 1: // cold computes → write-behind
					do(c, shard, fmt.Sprintf("cold%d-%d", w, i), func() Entry { return testEntry(i) })
				case 2:
					c.Put(shard, fmt.Sprintf("put%d", i%40), testEntry(i))
				case 3:
					c.Get(shard, fmt.Sprintf("put%d", i%40))
				default:
					c.StoreBatch(shard, []Record{{Key: fmt.Sprintf("adm%d", i%20), Entry: testEntry(i)}})
				}
			}
		}(w)
	}
	wg.Wait()
	c.SyncRemote()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseDrainsWriteBehind: Close must drain the queue so a process
// exiting right after an exploration still ships its computes.
func TestCloseDrainsWriteBehind(t *testing.T) {
	c, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	remote := newStubStore()
	c.SetRemote(remote, RemoteOptions{})
	const n = 100
	for i := 0; i < n; i++ {
		c.Put("G", fmt.Sprintf("k%d", i), testEntry(i))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	got := 0
	for i := 0; i < n; i++ {
		if _, ok := remote.get("G", fmt.Sprintf("k%d", i)); ok {
			got++
		}
	}
	if got != n {
		t.Errorf("%d/%d entries reached the remote after Close", got, n)
	}

	// A write after Close has no flusher left to ship it: it stays local
	// and is counted as dropped, never parked in the queue uncounted.
	const late = 16
	for i := 0; i < late; i++ {
		c.Put("G", fmt.Sprintf("late%d", i), testEntry(i))
	}
	if st := c.Stats(); st.WriteBehindDropped != late {
		t.Errorf("WriteBehindDropped = %d after %d puts on a closed cache, want %d", st.WriteBehindDropped, late, late)
	}
	if parked := len(c.remote.ch); parked != 0 {
		t.Errorf("%d entries parked in the write-behind queue after Close", parked)
	}
	if !holds(c, "G", "late0") {
		t.Error("a put after Close was not kept locally")
	}
}
