package cc

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"customfit/internal/ir"
)

// run compiles a single-kernel source and interprets it.
func run(t *testing.T, src string, env *ir.Env) *ir.Func {
	t.Helper()
	fn, err := CompileKernel(src)
	if err != nil {
		t.Fatalf("CompileKernel: %v", err)
	}
	if _, err := ir.Interp(fn, env); err != nil {
		t.Fatalf("Interp: %v\nIR:\n%s", err, fn)
	}
	return fn
}

func TestLowerScaleKernel(t *testing.T) {
	src := `
		kernel scale(byte in[], byte out[], int n) {
			int i;
			for (i = 0; i < n; i++) {
				out[i] = (in[i] * 3 + 8) >> 4;
			}
		}`
	in := []int32{0, 10, 100, 255, 7}
	out := make([]int32, 5)
	run(t, src, ir.NewEnv(5).Bind("in", in).Bind("out", out))
	for i, v := range in {
		want := (v*3 + 8) >> 4
		if out[i] != want&0xff {
			t.Errorf("out[%d] = %d, want %d", i, out[i], want&0xff)
		}
	}
}

func TestLowerFullUnrollAndConstTable(t *testing.T) {
	src := `
		const int w[4] = {1, 3, 3, 1};
		kernel fir(int in[], int out[], int n) {
			int i;
			for (i = 0; i < n; i++) {
				int acc; int c;
				acc = 0;
				for (c = 0; c < 4; c++) {
					acc += in[i + c] * w[c];
				}
				out[i] = acc >> 3;
			}
		}`
	in := []int32{8, 16, 24, 32, 40, 48, 56}
	out := make([]int32, 4)
	fn := run(t, src, ir.NewEnv(4).Bind("in", in).Bind("out", out))
	for i := 0; i < 4; i++ {
		want := (in[i] + 3*in[i+1] + 3*in[i+2] + in[i+3]) >> 3
		if out[i] != want {
			t.Errorf("out[%d] = %d, want %d", i, out[i], want)
		}
	}
	// The constant inner loop must be fully unrolled: exactly one
	// runtime loop recorded, and no second backedge in the CFG.
	if fn.Loop == nil {
		t.Fatal("pixel loop not recorded")
	}
	backedges := 0
	for _, b := range fn.Blocks {
		for _, s := range b.Succs {
			if s == b {
				backedges++
			}
		}
	}
	if backedges != 1 {
		t.Errorf("self-loop backedges = %d, want 1 (inner loop should be unrolled)", backedges)
	}
}

func TestLowerDivisionSemantics(t *testing.T) {
	src := `
		kernel div(int in[], int out[], int n) {
			int i;
			for (i = 0; i < n; i++) {
				out[i * 2] = in[i] / 8;
				out[i * 2 + 1] = in[i] % 8;
			}
		}`
	in := []int32{17, -17, 0, -1, 64, -64, 7, -8}
	out := make([]int32, 16)
	run(t, src, ir.NewEnv(int32(len(in))).Bind("in", in).Bind("out", out))
	for i, v := range in {
		if out[i*2] != v/8 {
			t.Errorf("%d / 8 = %d, want %d (C truncation)", v, out[i*2], v/8)
		}
		if out[i*2+1] != v%8 {
			t.Errorf("%d %% 8 = %d, want %d", v, out[i*2+1], v%8)
		}
	}
}

func TestLowerDivisionPropertyMatchesGo(t *testing.T) {
	fn, err := CompileKernel(`
		kernel d(int in[], int out[], int n) {
			int i;
			for (i = 0; i < n; i++) { out[i] = in[i] / 16; }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	f := func(v int32) bool {
		in := []int32{v}
		out := []int32{0}
		if _, err := ir.Interp(fn, ir.NewEnv(1).Bind("in", in).Bind("out", out)); err != nil {
			return false
		}
		return out[0] == v/16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLowerIfElseHomeRegMerge(t *testing.T) {
	src := `
		kernel sign(int in[], int out[], int n) {
			int i;
			for (i = 0; i < n; i++) {
				int s;
				if (in[i] > 0) { s = 1; }
				else if (in[i] < 0) { s = 0 - 1; }
				else { s = 0; }
				out[i] = s;
			}
		}`
	in := []int32{5, -5, 0, 2147483647, -2147483648}
	out := make([]int32, 5)
	run(t, src, ir.NewEnv(5).Bind("in", in).Bind("out", out))
	want := []int32{1, -1, 0, 1, -1}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("sign(%d) = %d, want %d", in[i], out[i], want[i])
		}
	}
}

func TestLowerTernaryAndBuiltins(t *testing.T) {
	src := `
		kernel f(int in[], int out[], int n) {
			int i;
			for (i = 0; i < n; i++) {
				int v;
				v = in[i];
				out[i * 4] = v > 100 ? v - 100 : v;
				out[i * 4 + 1] = min(v, 50);
				out[i * 4 + 2] = abs(v);
				out[i * 4 + 3] = clamp(v, 0, 255);
			}
		}`
	in := []int32{150, -7, 42, 300}
	out := make([]int32, 16)
	run(t, src, ir.NewEnv(4).Bind("in", in).Bind("out", out))
	for i, v := range in {
		w0 := v
		if v > 100 {
			w0 = v - 100
		}
		w1 := min(v, int32(50))
		w2 := v
		if v < 0 {
			w2 = -v
		}
		w3 := min(max(v, 0), 255)
		got := out[i*4 : i*4+4]
		if got[0] != w0 || got[1] != w1 || got[2] != w2 || got[3] != w3 {
			t.Errorf("in=%d: got %v, want [%d %d %d %d]", v, got, w0, w1, w2, w3)
		}
	}
}

func TestLowerCasts(t *testing.T) {
	src := `
		kernel c(int in[], int out[], int n) {
			int i;
			for (i = 0; i < n; i++) {
				out[i * 4] = (byte) in[i];
				out[i * 4 + 1] = (sbyte) in[i];
				out[i * 4 + 2] = (ushort) in[i];
				out[i * 4 + 3] = (short) in[i];
			}
		}`
	in := []int32{0x1ff, -1, 0x18000, 0x7fff}
	out := make([]int32, 16)
	run(t, src, ir.NewEnv(4).Bind("in", in).Bind("out", out))
	for i, v := range in {
		want := []int32{v & 0xff, int32(int8(v)), v & 0xffff, int32(int16(v))}
		for j, w := range want {
			if out[i*4+j] != w {
				t.Errorf("cast %d of %#x = %d, want %d", j, v, out[i*4+j], w)
			}
		}
	}
}

func TestLowerLogicalOps(t *testing.T) {
	src := `
		kernel l(int in[], int out[], int n) {
			int i;
			for (i = 0; i < n; i++) {
				int v;
				v = in[i];
				out[i * 3] = (v > 0) && (v < 10);
				out[i * 3 + 1] = (v < 0) || (v > 10);
				out[i * 3 + 2] = !v;
			}
		}`
	in := []int32{5, -3, 0, 20}
	out := make([]int32, 12)
	run(t, src, ir.NewEnv(4).Bind("in", in).Bind("out", out))
	for i, v := range in {
		want := []int32{cb(v > 0 && v < 10), cb(v < 0 || v > 10), cb(v == 0)}
		for j, w := range want {
			if out[i*3+j] != w {
				t.Errorf("logical %d of %d = %d, want %d", j, v, out[i*3+j], w)
			}
		}
	}
}

func TestLowerShortCircuitValuesNotRequired(t *testing.T) {
	// CKC evaluates both sides of && (documented divergence): both sides
	// must be side-effect free, which the grammar guarantees. 2 && 1
	// must still be 1, not 2&1=0.
	src := `
		kernel l(int out[], int a, int b) {
			out[0] = a && b;
		}`
	out := []int32{9}
	run(t, src, ir.NewEnv(2, 1).Bind("out", out))
	if out[0] != 1 {
		t.Errorf("2 && 1 = %d, want 1", out[0])
	}
}

func TestLowerLoopInfoShape(t *testing.T) {
	fn, err := CompileKernel(`
		kernel k(byte o[], int n) {
			int i;
			for (i = 0; i < n; i++) { o[i] = 0; }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	l := fn.Loop
	if l == nil {
		t.Fatal("LoopInfo missing")
	}
	if !l.SingleBlock() {
		t.Error("simple loop should be single-block")
	}
	if l.Step != 1 {
		t.Errorf("Step = %d, want 1", l.Step)
	}
	// Rotated form: preheader ends in cbr to {header, exit}.
	term := l.Preheader.Terminator()
	if term == nil || term.Op != ir.OpCBr || term.Targets[0] != l.Header || term.Targets[1] != l.Exit {
		t.Errorf("preheader terminator wrong: %v", term)
	}
	lterm := l.Latch.Terminator()
	if lterm == nil || lterm.Op != ir.OpCBr || lterm.Targets[0] != l.Header {
		t.Errorf("latch terminator wrong: %v", lterm)
	}
}

func TestLowerZeroTripPixelLoop(t *testing.T) {
	src := `
		kernel k(int out[], int n) {
			int i;
			for (i = 0; i < n; i++) { out[i] = 7; }
		}`
	out := []int32{42}
	run(t, src, ir.NewEnv(0).Bind("out", out))
	if out[0] != 42 {
		t.Errorf("zero-trip loop wrote memory: out[0] = %d", out[0])
	}
}

func TestLowerGlobalPersistence(t *testing.T) {
	// Globals keep state across invocations when the caller reuses the
	// same environment buffers (Floyd-Steinberg's error buffer pattern).
	src := `
		int acc[1];
		kernel accumulate(int in[], int out[], int n) {
			int i;
			for (i = 0; i < n; i++) {
				acc[0] += in[i];
				out[i] = acc[0];
			}
		}`
	fn, err := CompileKernel(src)
	if err != nil {
		t.Fatal(err)
	}
	accBuf := []int32{0}
	in := []int32{1, 2, 3}
	out := make([]int32, 3)
	env := ir.NewEnv(3).Bind("in", in).Bind("out", out).Bind("acc", accBuf)
	if _, err := ir.Interp(fn, env); err != nil {
		t.Fatal(err)
	}
	if out[2] != 6 || accBuf[0] != 6 {
		t.Errorf("first pass: out[2]=%d acc=%d, want 6 6", out[2], accBuf[0])
	}
	if _, err := ir.Interp(fn, env); err != nil {
		t.Fatal(err)
	}
	if accBuf[0] != 12 {
		t.Errorf("second pass acc = %d, want 12", accBuf[0])
	}
}

func TestLowerLEBound(t *testing.T) {
	src := `
		kernel k(int out[], int n) {
			int i;
			for (i = 0; i <= n; i++) { out[i] = i; }
		}`
	out := make([]int32, 4)
	run(t, src, ir.NewEnv(3).Bind("out", out))
	for i := int32(0); i < 4; i++ {
		if out[i] != i {
			t.Errorf("out[%d] = %d, want %d", i, out[i], i)
		}
	}
}

func TestLowerVerifiesAllKernels(t *testing.T) {
	fns, err := Compile(`
		kernel a(int o[], int n) { int i; for (i = 0; i < n; i++) { o[i] = i * i; } }
		kernel b(int o[], int n) { int i; for (i = 0; i < n; i++) { o[i] = i + i; } }
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(fns) != 2 {
		t.Fatalf("kernels = %d, want 2", len(fns))
	}
	for _, fn := range fns {
		if err := fn.Verify(); err != nil {
			t.Errorf("%s: %v", fn.Name, err)
		}
	}
}

func TestLowerUnaryChainSemantics(t *testing.T) {
	src := `
		kernel u(int out[], int a) {
			out[0] = - - a;
			out[1] = ~~a;
			out[2] = !!a;
			out[3] = -a + ~a;
		}`
	for _, a := range []int32{0, 5, -7, 2147483647} {
		out := make([]int32, 4)
		run(t, src, ir.NewEnv(a).Bind("out", out))
		nb := int32(0)
		if a != 0 {
			nb = 1
		}
		want := []int32{a, a, nb, -a + ^a}
		for i := range want {
			if out[i] != want[i] {
				t.Errorf("a=%d out[%d] = %d, want %d", a, i, out[i], want[i])
			}
		}
	}
}

func TestLowerArrayCompoundOps(t *testing.T) {
	src := `
		kernel c(int a[], int n) {
			a[0] += 5;
			a[1] *= 3;
			a[2] >>= 1;
			a[3]++;
		}`
	arr := []int32{10, 10, 10, 10}
	run(t, src, ir.NewEnv(4).Bind("a", arr))
	want := []int32{15, 30, 5, 11}
	for i := range want {
		if arr[i] != want[i] {
			t.Errorf("a[%d] = %d, want %d", i, arr[i], want[i])
		}
	}
}

// TestFullUnrollIsBounded lowers constant-trip loops nested four deep:
// 64⁴ copies of an empty body, and 8⁴ copies of a body of 32 stores.
// The lowerer must refuse both with a diagnostic at a loop long before
// that many copies or instructions exist.
func TestFullUnrollIsBounded(t *testing.T) {
	stores := strings.Repeat("out[i] = d; ", 32)
	for bound, want := range map[int]string{64: "copies of a body", 8: "unroll to more than"} {
		body := ""
		if bound == 8 {
			body = stores
		}
		src := fmt.Sprintf(`kernel f(int out[], int n) {
			int i; int a; int b; int c; int d;
			for (i = 0; i < n; i++) {
				for (a = 0; a < %[1]d; a++) { for (b = 0; b < %[1]d; b++) {
					for (c = 0; c < %[1]d; c++) { for (d = 0; d < %[1]d; d++) { %[2]s } } } }
			}
		}`, bound, body)
		_, err := CompileKernel(src)
		var ce *Error
		if !errors.As(err, &ce) || !strings.Contains(err.Error(), want) {
			t.Errorf("%d⁴ copies: CompileKernel = %v, want the diagnostic saying %q", bound, err, want)
		}
	}
}
