package evcache

import (
	"encoding/json"
	"strconv"
	"strings"
)

// The shard line codec. A line is json.Marshal(Record{…}) and always
// has been, but nearly every line a cache reads it also wrote, in one
// fixed shape:
//
//	{"k":"<key>","u":N,"c":N,"s":N[,"f":true],"r":N}
//
// with a key that JSON spells as itself (plainKey). appendRecord writes
// that shape by hand and parseRecord reads exactly that shape and
// nothing else; a key that needs an escape, and any line that departs
// from the shape by a byte (whitespace, reordered, unknown or repeated
// fields, a number Marshal would not have written), goes through
// encoding/json as before. The hand-written half is therefore only a
// faster spelling of the same function: FuzzShardLine holds the two
// decoders and the two encoders equal.

// Plain reports whether JSON spells s as itself between quotes:
// printable ASCII with none of the five characters json.Marshal escapes.
// Every loaded shard line asks it of its key, and serve of every name a
// measurement document carries, a byte at a time, so it looks each byte
// up in plainByte.
func Plain[S string | []byte](s S) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte[s[i]] {
			return false
		}
	}
	return true
}

// plainKey is Plain of a shard line's key.
func plainKey(key string) bool { return Plain(key) }

// plainByte[c] reports whether JSON spells byte c as itself in a string.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// appendRecord appends the shard line of (key, e), without the newline:
// byte for byte what json.Marshal makes of the Record.
func appendRecord(dst []byte, key string, e Entry) ([]byte, error) {
	if !plainKey(key) {
		b, err := json.Marshal(Record{Key: key, Entry: e})
		return append(dst, b...), err
	}
	dst = append(append(dst, `{"k":"`...), key...)
	dst = strconv.AppendInt(append(dst, `","u":`...), int64(e.Unroll), 10)
	dst = strconv.AppendInt(append(dst, `,"c":`...), e.Cycles, 10)
	dst = strconv.AppendInt(append(dst, `,"s":`...), int64(e.Spilled), 10)
	if e.Failed {
		dst = append(dst, `,"f":true`...)
	}
	dst = strconv.AppendInt(append(dst, `,"r":`...), e.Runs, 10)
	return append(dst, '}'), nil
}

// decodeRecord decodes one shard line: by parseRecord when the line has
// the shape appendRecord writes, by encoding/json otherwise. The key of
// a line in that shape is a substring of line, not a copy. A line that
// does not decode, or decodes to no key, is not a record.
func decodeRecord(line string) (Record, bool) {
	r, ok := parseRecord(line)
	if !ok {
		// A variable of this branch's own: encoding/json moves what it
		// decodes into to the heap, and a line parseRecord took must
		// not pay for that.
		var slow Record
		if json.Unmarshal([]byte(line), &slow) != nil {
			return Record{}, false
		}
		r = slow
	}
	return r, r.Key != ""
}

// parseRecord reads a line in appendRecord's shape. It declines (ok
// false) anything else, including lines encoding/json would accept.
func parseRecord(line string) (r Record, ok bool) {
	rest, ok := strings.CutPrefix(line, `{"k":"`)
	if !ok {
		return r, false
	}
	end := strings.IndexByte(rest, '"')
	if end < 0 || !plainKey(rest[:end]) {
		return r, false
	}
	r.Key, rest = rest[:end], rest[end:]
	var u, s int64
	if u, rest, ok = cutField(rest, `","u":`); !ok || int64(int(u)) != u {
		return r, false
	}
	if r.Cycles, rest, ok = cutField(rest, `,"c":`); !ok {
		return r, false
	}
	if s, rest, ok = cutField(rest, `,"s":`); !ok || int64(int(s)) != s {
		return r, false
	}
	r.Unroll, r.Spilled = int(u), int(s)
	rest, r.Failed = strings.CutPrefix(rest, `,"f":true`)
	if r.Runs, rest, ok = cutField(rest, `,"r":`); !ok || rest != "}" {
		return r, false
	}
	return r, true
}

// cutField cuts `<name><integer>` off the front of s. The integer is in
// the one spelling strconv.AppendInt gives it — no sign but '-', no
// leading zero, no fraction or exponent — and short enough (18 digits)
// that it cannot overflow.
func cutField(s, name string) (v int64, rest string, ok bool) {
	if s, ok = strings.CutPrefix(s, name); !ok {
		return 0, s, false
	}
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	n := 0
	for n < len(s) && s[n] >= '0' && s[n] <= '9' {
		v = v*10 + int64(s[n]-'0')
		n++
	}
	if n == 0 || n > 18 || (s[0] == '0' && (n > 1 || neg)) {
		return 0, s, false
	}
	if neg {
		v = -v
	}
	return v, s[n:], true
}
