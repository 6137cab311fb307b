package cc_test

import (
	"errors"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/cc"
)

// FuzzCompileKernel feeds the whole frontend — lexer, parser, checker,
// lowerer — arbitrary source, seeded with the suite's eleven kernels and
// a megabyte of nested parentheses (deepSource, past MaxNesting). Any
// input must compile to a positioned diagnostic (cc.Error) or to
// functions that pass ir.Verify, and must never panic: an error of
// another kind is the lowerer's internal one, a function it built wrong.
func FuzzCompileKernel(f *testing.F) {
	for _, b := range bench.All() {
		f.Add(b.Source)
	}
	f.Add(deepSource)
	f.Fuzz(func(t *testing.T, src string) {
		fns, err := cc.Compile(src)
		if err != nil {
			var diag *cc.Error
			if !errors.As(err, &diag) {
				t.Fatalf("not a diagnostic: %v", err)
			}
			return
		}
		for _, fn := range fns {
			if err := fn.Verify(); err != nil {
				t.Fatalf("lowered %s does not verify: %v", fn.Name, err)
			}
		}
	})
}
