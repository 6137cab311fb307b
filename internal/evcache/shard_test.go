package evcache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"customfit/internal/obs"
)

// writeShard writes lines, each followed by eol, under the current
// header as dir's shard `name`.
func writeShard(t *testing.T, dir, name, eol string, lines ...string) string {
	t.Helper()
	head := fmt.Sprintf(`{"evcache":%q,"schema":%d}`, headerMagic, SchemaVersion)
	path := filepath.Join(dir, name+".jsonl")
	text := strings.Join(append([]string{head}, lines...), eol) + eol
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOversizedLineCostsOnlyItself: a line of any length between good
// ones is one corrupt line, not the end of the shard. The loader used
// to scan with a 1 MiB line cap and never looked at the scanner's
// error: everything after the long line was dropped without a count,
// and the next flush rewrote the file without it. Also with "\r\n" line
// ends, and with a last line that has no newline.
func TestOversizedLineCostsOnlyItself(t *testing.T) {
	var lines []string
	for i := 0; i < 10; i++ {
		b, err := json.Marshal(Record{Key: fmt.Sprintf("k%d", i), Entry: testEntry(i)})
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(b))
	}
	good := 0
	for _, l := range lines {
		good += len(l)
	}
	lines = append(lines[:5:5], append([]string{strings.Repeat("x", 2<<20)}, lines[5:]...)...)

	for _, tc := range []struct {
		name, eol string
		cutLast   bool // the last line ends the file, without a newline
	}{
		{"lf", "\n", false},
		{"crlf", "\r\n", false},
		{"no final newline", "\n", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := writeShard(t, dir, "G", tc.eol, lines...)
			if tc.cutLast {
				data, _ := os.ReadFile(path)
				os.WriteFile(path, bytes.TrimSuffix(data, []byte("\n")), 0o644)
			}
			col := obs.NewCollector()
			obs.Install(col)
			defer obs.Install(nil)
			c, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if e, ok := c.Peek("G", fmt.Sprintf("k%d", i)); !ok || e != testEntry(i) {
					t.Errorf("k%d = %+v, %v after loading around the oversized line", i, e, ok)
				}
			}
			st := c.Stats()
			if st.CorruptLines != 1 || col.Counter("evcache.corrupt_lines").Value() != 1 {
				t.Errorf("CorruptLines = %d, evcache.corrupt_lines = %d, want 1 and 1",
					st.CorruptLines, col.Counter("evcache.corrupt_lines").Value())
			}
			if want := int64(len(`{"evcache":"cfp-evcache","schema":1}`) + good); st.BytesRead != want {
				t.Errorf("BytesRead = %d, want %d (the header and the ten good lines, line ends not counted)", st.BytesRead, want)
			}

			c.Put("G", "fresh", testEntry(42))
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := bytes.Count(data, []byte("\n")); n != 12 {
				t.Errorf("the flushed shard has %d lines, want 12 (header, ten survivors, the new entry)", n)
			}
			c2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if !holds(c2, "G", fmt.Sprintf("k%d", i)) {
					t.Errorf("k%d lost in the flush after the oversized line", i)
				}
			}
			if !holds(c2, "G", "fresh") || c2.Stats().CorruptLines != 0 {
				t.Errorf("rewritten shard: fresh held %v, %d corrupt lines", holds(c2, "G", "fresh"), c2.Stats().CorruptLines)
			}
		})
	}
}

// TestRecordedShardLoadsAndReflushesIdentical pins the bytes on disk:
// testdata/shard_v1.jsonl is a shard of kernel A written by the commit
// before the hand-written codec (230 sweeps, two of them failed, two
// under an op-enabled key). It must load to the entries encoding/json
// reads from it, line by line, and a flush must write it back byte for
// byte. The byte counts are the ones that commit reported for it.
func TestRecordedShardLoadsAndReflushesIdentical(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "shard_v1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "A.jsonl")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")[1:]
	var failed, opKeys int
	var last Record
	for _, line := range lines {
		var r Record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if e, ok := c.Peek("A", r.Key); !ok || e != r.Entry {
			t.Fatalf("%s loaded as %+v, %v", line, e, ok)
		}
		if r.Failed {
			failed++
		}
		if strings.Contains(r.Key, ".ops{") {
			opKeys++
		}
		last = r
	}
	if len(lines) != 230 || failed != 2 || opKeys != 2 || c.Resident() != 230 {
		t.Fatalf("%d lines, %d failed, %d op-enabled, %d resident; want 230, 2, 2, 230", len(lines), failed, opKeys, c.Resident())
	}
	c.Put("A", last.Key, last.Entry) // dirty the shard so that Close rewrites it
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("the shard re-flushed differs from the recorded one")
	}
	if st := c.Stats(); st.BytesRead != 18674 || st.BytesWrit != 18905 || st.CorruptLines != 0 {
		t.Errorf("stats %+v, want 18674 bytes read, 18905 written, nothing corrupt", st)
	}
}

// TestEvictionOrder walks the documented rule, not its implementation:
// past SetMaxEntries the least recently used clean entry goes first,
// whichever shard it is in; Get, DoErr and Put make an entry the most
// recently used and Peek does not; an unflushed entry is never evicted,
// and a flush releases it.
func TestEvictionOrder(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.SetMaxEntries(4)
	key := func(i int) string { return fmt.Sprintf("k%d", i) }
	put := func(i int) { c.Put("G", key(i), testEntry(i)) }
	// resident checks which of G's k0…k12 and F's "other" are held.
	resident := func(want ...string) {
		t.Helper()
		var got []string
		for i := 0; i <= 12; i++ {
			if holds(c, "G", key(i)) {
				got = append(got, key(i))
			}
		}
		if holds(c, "F", "other") {
			got = append(got, "other")
		}
		if fmt.Sprint(got) != fmt.Sprint(want) || c.Resident() != len(want) {
			t.Fatalf("resident %v (%d), want %v", got, c.Resident(), want)
		}
	}
	flush := func() {
		t.Helper()
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i <= 5; i++ {
		put(i)
	}
	resident("k0", "k1", "k2", "k3", "k4", "k5") // all unflushed: pinned past the cap
	flush()
	resident("k2", "k3", "k4", "k5") // the two oldest went

	c.Get("G", key(2)) // oldest first: 3 4 5 2
	put(6)             // 3 goes
	resident("k2", "k4", "k5", "k6")
	do(c, "F", "other", func() Entry { return testEntry(0) }) // another shard, the same LRU: 4 goes
	resident("k2", "k5", "k6", "other")
	flush() // 5 2 6 other, all clean

	holds(c, "G", key(5))                                  // a Peek: 5 stays the oldest
	do(c, "G", key(2), func() Entry { panic("resident") }) // a hit: 5 6 other 2
	put(7)
	resident("k2", "k6", "k7", "other")
	put(8)
	resident("k2", "k7", "k8", "other")
	put(9)
	resident("k2", "k7", "k8", "k9")
	put(10)
	resident("k7", "k8", "k9", "k10") // nothing clean is left
	put(11)
	resident("k7", "k8", "k9", "k10", "k11") // over the cap rather than lose one

	c.Put("G", key(7), testEntry(70)) // a refresh: 8 9 10 11 7
	flush()
	resident("k7", "k9", "k10", "k11")
	put(12)
	resident("k7", "k10", "k11", "k12")

	// Nothing evicted was lost.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(c.dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 12; i++ {
		want := testEntry(i)
		if i == 7 {
			want = testEntry(70)
		}
		if e, ok := c2.Peek("G", key(i)); !ok || e != want {
			t.Errorf("k%d = %+v, %v after reopening", i, e, ok)
		}
	}
	if !holds(c2, "F", "other") {
		t.Error("F's entry lost")
	}
}

// TestGetAllAllOrNothing: a batch whose keys are all resident is
// accounted as that many DoErrBytes hits in order — counted, made the
// most recently used, last key last — and a batch with one key absent
// is accounted as nothing at all, whatever came before the absent key:
// no hit, no miss, no entry moved in the LRU order.
func TestGetAllAllOrNothing(t *testing.T) {
	c, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) string { return fmt.Sprintf("k%d", i) }
	for i := 0; i < 6; i++ {
		c.Put("G", key(i), testEntry(i)) // oldest first: 0 1 2 3 4 5
	}
	batch := func(ids ...int) ([]Entry, bool) {
		out := make([]Entry, len(ids))
		covered, loaded := c.GetAll("G", len(ids),
			func(buf []byte, i int) []byte { return append(buf, key(ids[i])...) },
			func(i int, e Entry) { out[i] = e })
		if loaded {
			t.Error("a memory-only cache read a shard file")
		}
		return out, covered
	}
	resident := func(want ...int) {
		t.Helper()
		var got []int
		for i := 0; i < 8; i++ {
			if holds(c, "G", key(i)) {
				got = append(got, i)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("resident %v, want %v", got, want)
		}
	}

	before := c.Stats()
	if out, covered := batch(0, 1, 7, 2); covered || out[0] != (Entry{}) {
		t.Fatalf("a batch with an absent key: covered %v, entries delivered %+v", covered, out)
	}
	if st := c.Stats(); st != before {
		t.Errorf("the uncovered batch was accounted: %+v -> %+v", before, st)
	}
	c.SetMaxEntries(4) // 0 and 1 are still the oldest: they go
	resident(2, 3, 4, 5)

	out, covered := batch(3, 2, 3)
	if !covered || out[0] != testEntry(3) || out[1] != testEntry(2) || out[2] != testEntry(3) {
		t.Fatalf("covered batch: %v, %+v", covered, out)
	}
	if st := c.Stats(); st.Hits != before.Hits+3 || st.Misses != before.Misses {
		t.Errorf("the covered batch of three: %+v -> %+v, want three hits", before, st)
	}
	c.Put("G", key(6), testEntry(6)) // oldest first was 4 5 2 3: 4 goes
	resident(2, 3, 5, 6)
	c.Put("G", key(7), testEntry(7)) // then 5
	resident(2, 3, 6, 7)
	c.Put("G", key(0), testEntry(0)) // then 2, touched before 3's second touch
	resident(0, 3, 6, 7)
}

// TestSlabKeepsSlotsAcrossChunks: shards loaded past one slab chunk,
// half of everything evicted, one more shard loaded. Every index entry
// of every shard still names the slot that holds its key, the vacated
// slots are handed out again before the slab grows, and Resident counts
// what is there.
func TestSlabKeepsSlotsAcrossChunks(t *testing.T) {
	dir := t.TempDir()
	const perShard = slabChunk/2 + 44 // four of them: past two chunks, into a third
	shards := []string{"A", "B", "C", "D", "E"}
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for si, name := range shards {
		for i := 0; i < perShard; i++ {
			w.Put(name, fmt.Sprintf("%s-key-%d", name, i), testEntry(si*perShard+i))
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	consistent := func(when string, resident int) {
		t.Helper()
		indexed := 0
		for name, s := range c.shards {
			for key, slot := range s.index {
				if nd := c.node(slot); nd.key != key || nd.shard != s {
					t.Fatalf("%s: %s's index sends %q to slot %d, which holds %q", when, name, key, slot, nd.key)
				}
				indexed++
			}
		}
		if indexed != resident || c.Resident() != resident {
			t.Fatalf("%s: %d entries indexed, Resident() %d, want %d", when, indexed, c.Resident(), resident)
		}
	}
	for _, name := range shards[:4] {
		c.Peek(name, "")
	}
	consistent("four shards loaded", 4*perShard)
	if len(c.slab) != 3 || int(c.used) != 1+4*perShard {
		t.Fatalf("four shards of %d: %d chunks, %d slots used", perShard, len(c.slab), c.used)
	}
	c.SetMaxEntries(2 * perShard)
	consistent("half evicted", 2*perShard)
	c.Peek(shards[4], "")
	consistent("a fifth shard loaded", 2*perShard)
	if len(c.slab) != 3 || int(c.used) != 1+4*perShard {
		t.Errorf("the fifth shard grew the slab to %d chunks, %d slots used: the vacated slots were not handed out again", len(c.slab), c.used)
	}
	for i := 0; i < perShard; i++ {
		if e, ok := c.Peek("E", fmt.Sprintf("E-key-%d", i)); !ok || e != testEntry(4*perShard+i) {
			t.Fatalf("E-key-%d = %+v, %v", i, e, ok)
		}
	}
}
