package evcache

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzShardLine holds the hand-written half of the line codec to
// encoding/json, which it only abbreviates. On arbitrary bytes
// parseRecord either declines — the line is then decoded by
// encoding/json, as it always was — or returns exactly what
// json.Unmarshal returns, and never accepts a line json.Unmarshal
// rejects; decodeRecord, the two together, takes the lines
// json.Unmarshal takes and finds a key in. On an arbitrary key and entry appendRecord writes
// json.Marshal's bytes, and what it writes reads back.
func FuzzShardLine(f *testing.F) {
	for _, line := range []string{
		// Lines of real D, E, F and G shards, an op-enabled key, a
		// failed sweep.
		`{"k":"9885b717679cec1676c61e4b:c1.a4.m2.r128.p1.l4","u":8,"c":1289,"s":0,"r":4}`,
		`{"k":"105593289327d6336d109372:c1.a8.m2.r512.p2.l2","u":8,"c":359,"s":0,"r":4}`,
		`{"k":"6c51a622d62ef9c661ac6ec1:c1.a16.m4.r128.p1.l2","u":8,"c":597,"s":0,"r":4}`,
		`{"k":"882ee2cbd7b57f71d843ce01:c1.a2.m1.r64.p1.l2","u":4,"c":1961,"s":0,"r":4}`,
		`{"k":"fdc7ed18cbe2cd1de096a3d9:c2.a8.m4.r128.p1.l8.ops{3/1:add $0 $1;add %0 $2|3/2:mul $0 $1;add %0 $2}","u":4,"c":22404,"s":399,"r":3}`,
		`{"k":"fdc7ed18cbe2cd1de096a3d9:c2.a8.m2.r64.p1.l8","u":0,"c":0,"s":0,"f":true,"r":1}`,
		// Numbers Marshal would not have written, or that do not fit.
		`{"k":"k","u":-1,"c":-9223372036854775808,"s":-0,"r":-7}`,
		`{"k":"k","u":1,"c":9223372036854775807,"s":0,"r":1}`,
		`{"k":"k","u":1,"c":9223372036854775808,"s":0,"r":1}`,
		`{"k":"k","u":1e3,"c":5,"s":0,"r":1}`,
		`{"k":"k","u":01,"c":5,"s":0,"r":1}`,
		`{"k":"k","u":1.0,"c":5,"s":0,"r":1}`,
		// Shapes encoding/json takes and the fast form declines.
		`{"k":"k","u":1,"u":2,"c":5,"s":0,"r":1}`,
		`{"k":"k","u":1,"c":5,"s":0,"r":1,"x":[1,{"y":null}]}`,
		`{"k":"k","u":1,"c":5,"s":0,"f":false,"r":1}`,
		`{"u":1,"c":5,"s":0,"r":1,"k":"k"}`,
		` { "k" : "k" , "u" : 1 , "c" : 5 , "s" : 0 , "r" : 1 } `,
		`{"k":"\u0041","u":1,"c":5,"s":0,"r":1}`,
		`{"k":"a<b","u":1,"c":5,"s":0,"r":1}`,
		`{"k":"a\u003cb","u":1,"c":5,"s":0,"r":1}`,
		"{\"k\":\"caf\xc3\xa9 \xff\",\"u\":1,\"c\":5,\"s\":0,\"r\":1}",
		`{"K":"k","U":1,"c":5,"s":0,"r":1}`,
		`{"k":"","u":1,"c":5,"s":0,"r":1}`,
		`null`,
		// A torn tail, junk, the header.
		`{"k":"882ee2cbd7b57f71d843ce01:c1.a2.m1.r64.p1.l2","u":4,"c":19`,
		`{"k":"k","u":1,"c":5,"s":0,"r":1}}`,
		`!!not json!!`,
		``,
		`{"evcache":"cfp-evcache","schema":1}`,
	} {
		f.Add([]byte(line), "k", 1, int64(5), 0, false, int64(1))
	}
	f.Add([]byte(nil), "ops{a<b & \"c\"\\}", -3, int64(-1)<<63, 1<<31, true, int64(1)<<62)
	f.Add([]byte(nil), "café \xff\x00\x7f", 0, int64(0), 0, false, int64(0))

	f.Fuzz(func(t *testing.T, line []byte, key string, u int, c int64, s int, failed bool, r int64) {
		var want Record
		werr := json.Unmarshal(line, &want)
		if got, ok := parseRecord(string(line)); ok && (werr != nil || got != want) {
			t.Fatalf("parseRecord(%q) = %+v; json.Unmarshal gives %+v, %v", line, got, want, werr)
		}
		if got, ok := decodeRecord(string(line)); ok != (werr == nil && want.Key != "") || ok && got != want {
			t.Fatalf("decodeRecord(%q) = %+v, %v; json.Unmarshal gives %+v, %v", line, got, ok, want, werr)
		}

		rec := Record{Key: key, Entry: Entry{Unroll: u, Cycles: c, Spilled: s, Failed: failed, Runs: r}}
		wantLine, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		gotLine, err := appendRecord([]byte("kept"), rec.Key, rec.Entry)
		if err != nil || string(gotLine) != "kept"+string(wantLine) {
			t.Fatalf("appendRecord(%+v) = %q, %v; json.Marshal gives %q", rec, gotLine, err, wantLine)
		}
		if back, ok := decodeRecord(string(wantLine)); ok != (key != "") || ok && utf8.ValidString(key) && back != rec {
			t.Fatalf("%+v written as %q reads back as %+v, %v", rec, wantLine, back, ok)
		}
	})
}

// TestWrittenLinesTakeTheFastPath: the hand-written decoder is only
// worth having while it takes the lines the cache writes. Every line of
// the recorded shard — plain and op-enabled keys, failed sweeps — must,
// and so must the extremes of what appendRecord spells by hand; 19
// digits and an escaped key are encoding/json's.
func TestWrittenLinesTakeTheFastPath(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "shard_v1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")[1:]
	for _, line := range lines {
		if _, ok := parseRecord(line); !ok {
			t.Errorf("parseRecord declines the recorded line %s", line)
		}
	}
	// And for nothing: the fallback's heap record is the fallback's.
	if n := testing.AllocsPerRun(100, func() { decodeRecord(lines[0]) }); n != 0 {
		t.Errorf("decodeRecord allocates %v objects on a line it wrote", n)
	}
	for _, tc := range []struct {
		rec  Record
		fast bool
	}{
		{Record{Key: "k", Entry: Entry{Unroll: -8, Cycles: 999999999999999999, Spilled: 0, Failed: true, Runs: -999999999999999999}}, true},
		{Record{Key: "k ~{}$%|;:/", Entry: Entry{}}, true},
		{Record{Key: "k", Entry: Entry{Cycles: 1000000000000000000}}, false},
		{Record{Key: "a<b", Entry: Entry{}}, false},
		{Record{Key: "caf\u00e9", Entry: Entry{}}, false},
		{Record{Key: "tab\t", Entry: Entry{}}, false},
	} {
		line, err := appendRecord(nil, tc.rec.Key, tc.rec.Entry)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := parseRecord(string(line)); ok != tc.fast {
			t.Errorf("parseRecord(%s) = %v, want %v", line, ok, tc.fast)
		}
		if got, ok := decodeRecord(string(line)); !ok || got != tc.rec {
			t.Errorf("%s decodes as %+v, %v", line, got, ok)
		}
	}
}

// TestPlainByteTable: the table plainKey looks bytes up in says what
// the predicate it replaced said, on every byte.
func TestPlainByteTable(t *testing.T) {
	for c := 0; c < 256; c++ {
		want := true
		switch {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			want = false
		}
		if got := plainKey(string([]byte{byte(c)})); got != want {
			t.Errorf("byte %#02x: plain %v, want %v", c, got, want)
		}
	}
}
