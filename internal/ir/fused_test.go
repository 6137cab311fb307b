package ir

import "testing"

// FuzzParseFusedSpec feeds ParseFusedSpec arbitrary text: the custom-op
// codec reaches it from every explore request's ops catalog and every
// results document that carries one. It must answer with a spec or an
// error, never panic and never both nil, and what it accepts must
// render (String) to a text that parses back to the same String and
// Key.
func FuzzParseFusedSpec(f *testing.F) {
	for _, seed := range []string{
		"mac/3/2:mul $0 $1;add %0 $2",
		"add_add/3/1:add $0 $1;add %0 $2",
		"mac/3/2: mul $0 $1; add %0 $2",
		"sad/2/1:sub $0 $1",
		"x/1/1:add $0 $0",
		"mac/3/2:mul $0 $1;add %1 $2",
		"mac/3/0:mul $0 $1",
		"mac/3:mul $0 $1",
		"mac/3/2:",
		"mac/3/2:mul $0",
		"mac/3/2:mul $0 $3",
		"mac/3/2:mul $0 #1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseFusedSpec(text)
		if err != nil {
			if s != nil {
				t.Fatalf("%q: a spec and an error (%v)", text, err)
			}
			return
		}
		if s == nil {
			t.Fatalf("%q: neither a spec nor an error", text)
		}
		back, err := ParseFusedSpec(s.String())
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", text, s.String(), err)
		}
		if back.String() != s.String() || back.Key() != s.Key() {
			t.Fatalf("%q renders as %q (key %q), which parses back as %q (key %q)",
				text, s.String(), s.Key(), back.String(), back.Key())
		}
	})
}
