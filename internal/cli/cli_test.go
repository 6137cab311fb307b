package cli

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"customfit/internal/machine"
	"customfit/internal/obs"
	"customfit/internal/sched"
)

func TestParseArch(t *testing.T) {
	a, err := ParseArch("8 2 128 1 4 4")
	if err != nil {
		t.Fatal(err)
	}
	want := machine.Arch{ALUs: 8, MULs: 2, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 4}
	if a != want {
		t.Errorf("ParseArch = %v, want %v", a, want)
	}
}

func TestParseArchErrors(t *testing.T) {
	cases := []struct {
		in, frag string
	}{
		{"8 2 128 1 4", "six integers"},
		{"a b c d e f", "six integers"},
		{"", "six integers"},
		{"0 1 64 1 4 1", "out of range"},    // zero ALUs invalid
		{"8 2 128 1 4 3", "divisible"},      // clusters don't divide
		{"8 2 128 9 4 1", "L2Ports"},        // too many ports
		{"8 2 128 1 99 1", "L2Lat"},         // latency out of range
		{"4 2 64 1 8 8", "clusters exceed"}, // more clusters than ALUs
	}
	for _, c := range cases {
		_, err := ParseArch(c.in)
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("ParseArch(%q) = %v, want error containing %q", c.in, err, c.frag)
		}
	}
}

// TestParseArchExactlySixFields: the tuple is six integers and nothing
// else. fmt.Sscanf stopped after the sixth verb with n == 6 and a nil
// error, so a seventh field or trailing junk was silently cut off.
func TestParseArchExactlySixFields(t *testing.T) {
	want := machine.Arch{ALUs: 8, MULs: 2, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 4}
	for _, tc := range []struct {
		in string
		ok bool
	}{
		{"8 2 128 1 4 4", true},
		{"  8 2 128 1 4 4", true},
		{"8 2 128 1 4 4  ", true},
		{"8  2   128 1\t4 4", true},
		{"8 2 128 1 4 4 9", false},
		{"8 2 128 1 4 4junk", false},
		{"8 2 128 1 4 4 junk", false},
		{"8 2 128 1 4 0x4", false},
		{"8 2 128 1 4 4.0", false},
		{"8,2,128,1,4,4", false},
	} {
		a, err := ParseArch(tc.in)
		switch {
		case tc.ok && (err != nil || a != want):
			t.Errorf("ParseArch(%q) = %v, %v; want %v", tc.in, a, err, want)
		case !tc.ok && (err == nil || !strings.Contains(err.Error(), "six integers")):
			t.Errorf("ParseArch(%q) = %v, %v; want a six-integers error", tc.in, a, err)
		}
	}
}

// TestParseArchOpsAndFormatArch: the wire tuple with its optional
// " ops=<hexmask>" suffix, and FormatArch as its inverse.
func TestParseArchOpsAndFormatArch(t *testing.T) {
	set, err := machine.ParseOpCatalog([]string{
		"mac/3/2:mul $0 $1;add %0 $2",
		"add_add/3/1:add $0 $1;add %0 $2",
	})
	if err != nil {
		t.Fatal(err)
	}
	plain := machine.Arch{ALUs: 8, MULs: 2, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 4}
	for _, tc := range []struct {
		in   string
		set  *machine.OpSet
		want machine.Arch
		frag string // of the error; "" = must parse
	}{
		{"8 2 128 1 4 4", nil, plain, ""},
		{"8 2 128 1 4 4", set, plain, ""},
		{"8 2 128 1 4 4 ops=1", set, plain.WithOps(set, 1), ""},
		{"8 2 128 1 4 4 ops=3", set, plain.WithOps(set, 3), ""},
		{" 8  2 128 1 4 4 ops=2", set, plain.WithOps(set, 2), ""},
		{"8 2 128 1 4 4 ops=1", nil, plain, "without an op catalog"},
		{"8 2 128 1 4 4 ops=zz", set, plain, "bad op mask"},
		{"8 2 128 1 4 4 ops=", set, plain, "bad op mask"},
		{"8 2 128 1 4 4 9 ops=1", set, plain, "six integers"},
		{"8 2 128 1 4 4junk ops=1", set, plain, "six integers"},
		{"8 2 128 1 4 4 ops=1 9", set, plain, "bad op mask"},
	} {
		a, err := ParseArchOps(tc.in, tc.set)
		if tc.frag != "" {
			if err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Errorf("ParseArchOps(%q) = %v, %v; want an error containing %q", tc.in, a, err, tc.frag)
			}
			continue
		}
		if err != nil || a != tc.want {
			t.Errorf("ParseArchOps(%q) = %v, %v; want %v", tc.in, a, err, tc.want)
			continue
		}
		back, err := ParseArchOps(FormatArch(a), tc.set)
		if err != nil || back != a {
			t.Errorf("FormatArch(%v) = %q parses back as %v, %v", a, FormatArch(a), back, err)
		}
	}
	if got := FormatArch(plain); got != "8 2 128 1 4 4" {
		t.Errorf("FormatArch(%v) = %q", plain, got)
	}
	if got := FormatArch(plain.WithOps(set, 3)); got != "8 2 128 1 4 4 ops=3" {
		t.Errorf("FormatArch with ops = %q", got)
	}
}

func TestToolFlagRegistrationAndCache(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	tool := NewToolOn(fs, "test-tool", WithCache())
	dir := t.TempDir()
	if err := fs.Parse([]string{"-cache-dir", dir}); err != nil {
		t.Fatal(err)
	}
	// Every standard cross-cutting flag must be registered exactly once.
	for _, name := range []string{"trace", "metrics", "pprof", "cache-dir", "cache", "version"} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
	if err := tool.Start(); err != nil {
		t.Fatal(err)
	}
	c1, err := tool.OpenCache()
	if err != nil {
		t.Fatal(err)
	}
	if c1 == nil {
		t.Fatal("OpenCache returned nil with -cache-dir set")
	}
	if c2, _ := tool.OpenCache(); c2 != c1 {
		t.Error("OpenCache not idempotent")
	}
	tool.Close()
}

func TestToolCacheOffModes(t *testing.T) {
	// No cache flags registered at all.
	fs := flag.NewFlagSet("plain", flag.ContinueOnError)
	plain := NewToolOn(fs, "plain")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if c, err := plain.OpenCache(); err != nil || c != nil {
		t.Errorf("cacheless tool OpenCache = (%v, %v), want (nil, nil)", c, err)
	}
	plain.Close()

	// Flags registered, -cache=off given.
	fs2 := flag.NewFlagSet("off", flag.ContinueOnError)
	off := NewToolOn(fs2, "off", WithCache())
	if err := fs2.Parse([]string{"-cache-dir", t.TempDir(), "-cache", "off"}); err != nil {
		t.Fatal(err)
	}
	if c, err := off.OpenCache(); err != nil || c != nil {
		t.Errorf("-cache=off OpenCache = (%v, %v), want (nil, nil)", c, err)
	}
	off.Close()
}

// TestCacheModeValidated: -cache takes exactly "on" and "off". A
// near-miss ("OFF", "of") used to mean "on" locally and, for "OFF",
// "off" on the fleet; now Start refuses it, naming both values.
func TestCacheModeValidated(t *testing.T) {
	for _, tc := range []struct {
		mode string
		ok   bool
	}{{"on", true}, {"off", true}, {"OFF", false}, {"of", false}, {"", false}} {
		fs := flag.NewFlagSet("mode", flag.ContinueOnError)
		tool := NewToolOn(fs, "mode", WithCache())
		if err := fs.Parse([]string{"-cache=" + tc.mode}); err != nil {
			t.Fatal(err)
		}
		err := tool.Start()
		tool.Close()
		if tc.ok {
			if err != nil {
				t.Errorf("-cache=%q: Start failed: %v", tc.mode, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), `"on"`) || !strings.Contains(err.Error(), `"off"`) {
			t.Errorf("-cache=%q: Start error %v, want one naming \"on\" and \"off\"", tc.mode, err)
		}
	}
}

// TestVersionString pins the identity line every tool prints for
// -version: tool name, Go runtime, and the backend code-generation
// fingerprint the distributed coordinator gates fleet admission on.
// TestMetricsFileIsTheExposition: -metrics FILE holds the Prometheus
// text exposition, the bytes cfp-serve's /metrics answers.
func TestMetricsFileIsTheExposition(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	tel := AddTelemetryFlagsTo(fs)
	path := filepath.Join(t.TempDir(), "m.prom")
	if err := fs.Parse([]string{"-metrics", path}); err != nil {
		t.Fatal(err)
	}
	if err := tel.Start(); err != nil {
		t.Fatal(err)
	}
	obs.GetCounter("sched.arenas_made").Inc()
	obs.StartSpan("compile").End()
	if err := tel.Stop(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.LintPrometheus(bytes.NewReader(data)); err != nil {
		t.Fatalf("metrics file does not lint: %v\n%s", err, data)
	}
	for _, want := range []string{"\ncfp_sched_arenas_made_total 1\n", `cfp_span_count_total{span="compile"} 1`} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("metrics file lacks %q:\n%s", want, data)
		}
	}
}

func TestVersionString(t *testing.T) {
	v := VersionString("cfp-test")
	if !strings.HasPrefix(v, "cfp-test ") {
		t.Errorf("VersionString = %q, want tool-name prefix", v)
	}
	if !strings.Contains(v, runtime.Version()) {
		t.Errorf("VersionString = %q, missing Go runtime %q", v, runtime.Version())
	}
	if !strings.Contains(v, sched.Fingerprint()) {
		t.Errorf("VersionString = %q, missing backend fingerprint %q", v, sched.Fingerprint())
	}
	if strings.Contains(v, "\n") {
		t.Errorf("VersionString = %q, want a single line", v)
	}
}

// referenceArchOps is ParseArchOps as strings.Fields and strconv.Atoi
// spell it: the reference readArchOps and ArchList are held to.
func referenceArchOps(s string, set *machine.OpSet) (machine.Arch, error) {
	tuple, suffix, found := strings.Cut(s, " ops=")
	var a machine.Arch
	fields := strings.Fields(tuple)
	dst := [...]*int{&a.ALUs, &a.MULs, &a.Regs, &a.L2Ports, &a.L2Lat, &a.Clusters}
	ok := len(fields) == len(dst)
	for i := 0; ok && i < len(dst); i++ {
		var err error
		*dst[i], err = strconv.Atoi(fields[i])
		ok = err == nil
	}
	if !ok {
		return machine.Arch{}, fmt.Errorf("architecture must be six integers \"a m r p2 l2 c\", got %q", tuple)
	}
	if err := a.Validate(); err != nil || !found {
		return a, err
	}
	if set == nil {
		return a, fmt.Errorf("op-enabled architecture %q without an op catalog", s)
	}
	mask, err := strconv.ParseUint(suffix, 16, 64)
	if err != nil {
		return a, fmt.Errorf("bad op mask in %q: %v", s, err)
	}
	a = a.WithOps(set, mask)
	return a, a.Validate()
}

// testCatalog is the catalog the " ops=" masks index into.
func testCatalog(t testing.TB) *machine.OpSet {
	set, err := machine.ParseOpCatalog([]string{
		"mac/3/2:mul $0 $1;add %0 $2",
		"add_add/3/1:add $0 $1;add %0 $2",
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// sameResult reports whether two (Arch, error) results are one: the
// same machine and the same error, word for word.
func sameResult(a machine.Arch, err error, b machine.Arch, berr error) bool {
	if (err == nil) != (berr == nil) || err != nil && err.Error() != berr.Error() {
		return false
	}
	return err != nil || a == b
}

// checkArchTuple holds readArchOps to the reference on one tuple, with
// and without a catalog.
func checkArchTuple(t *testing.T, set *machine.OpSet, tuple []byte) {
	t.Helper()
	for _, s := range []*machine.OpSet{nil, set} {
		got, _, err := readArchOps(tuple, s)
		want, werr := referenceArchOps(string(tuple), s)
		if !sameResult(got, err, want, werr) {
			t.Fatalf("readArchOps(%q, catalog %v) = %v, %v; the reference reads %v, %v", tuple, s != nil, got, err, want, werr)
		}
	}
}

// checkArchList holds ArchList to json.Unmarshal into []string and the
// reference on each element, with and without a catalog.
func checkArchList(t *testing.T, set *machine.OpSet, data []byte) {
	t.Helper()
	var l ArchList
	lerr := l.UnmarshalJSON(data)
	var strs []string
	if jerr := json.Unmarshal(data, &strs); (lerr == nil) != (jerr == nil) {
		t.Fatalf("ArchList.UnmarshalJSON(%q) = %v; json.Unmarshal says %v", data, lerr, jerr)
	}
	if lerr != nil {
		return
	}
	if l.Len() != len(strs) {
		t.Fatalf("ArchList(%q) holds %d tuples; json.Unmarshal reads %q", data, l.Len(), strs)
	}
	for _, s := range []*machine.OpSet{nil, set} {
		got, _, err := l.Archs(s)
		var want []machine.Arch
		var werr error
		for _, tuple := range strs {
			a, err := referenceArchOps(tuple, s)
			if err != nil {
				want, werr = nil, err
				break
			}
			want = append(want, a)
		}
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() || !slices.Equal(got, want) {
			t.Fatalf("ArchList(%q).Archs(catalog %v) = %v, %v; the reference reads %v, %v", data, s != nil, got, err, want, werr)
		}
	}
}

// archTupleSeeds are tuples and lists of them: the spellings the tests
// above pin, and the shapes the scanner and the list decoder must hand
// on.
var archTupleSeeds = []string{
	"8 2 128 1 4 4", "  8 2 128 1 4 4", "8 2 128 1 4 4  ", "8  2   128 1\t4 4", "8 2 128 1 4 4 9",
	"8 2 128 1 4 4junk", "8 2 128 1 4 0x4", "8 2 128 1 4 4.0", "8,2,128,1,4,4", "+8 2 128 1 4 4",
	"0 1 64 1 4 1", "8 2 128 1 4 3", "4 2 64 1 8 8", "008 2 128 1 4 4", "99999999999999999999 2 128 1 4 4",
	"8 2 128 1 4 4 ops=1", "8 2 128 1 4 4 ops=3", "8 2 128 1 4 4 ops=ff", "8 2 128 1 4 4 ops=",
	"8 2 128 1 4 4 ops=1 9", "8 2 128 1 4 4 9 ops=1", "",
	`["8 2 128 1 4 4","1 1 64 1 8 1"]`, ` [ "8 2 128 1 4 4" , "2 1 64 1 4 1" ] `, `[]`, `null`,
	`["8 2 128 1 4 4 ops=1"]`, `["8 2 128 1 4 4"]`, `["8 2 128 1 4 4",]`, `["a"] x`, `"8 2 128 1 4 4"`,
	`["8 2 128 1 4 4","8 2 128 1 4 3"]`, "[\"8 2 128 1 4 4\xff\"]",
}

func TestArchTupleReaders(t *testing.T) {
	set := testCatalog(t)
	for _, s := range archTupleSeeds {
		checkArchTuple(t, set, []byte(s))
		checkArchList(t, set, []byte(s))
	}
	// The spelling the coordinator sends is scanned; every other one is
	// ParseArchOps's.
	for s, fast := range map[string]bool{"8 2 128 1 4 4": true, "8 2 128 1 4 3": true, "8  2 128 1 4 4": false, "8 2 128 1 4 4 ops=1": false} {
		if _, got, _ := readArchOps([]byte(s), set); got != fast {
			t.Errorf("readArchOps(%q) scans it: %v, want %v", s, got, fast)
		}
	}
	var req struct {
		Archs ArchList `json:"archs"`
	}
	if err := json.Unmarshal([]byte(`{"archs":["8 2 128 1 4 4","8 2 128 1 4 4 ops=3"]}`), &req); err != nil {
		t.Fatal(err)
	}
	plain := machine.Arch{ALUs: 8, MULs: 2, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 4}
	archs, fallbacks, err := req.Archs.Archs(set)
	if err != nil || fallbacks != 1 || !slices.Equal(archs, []machine.Arch{plain, plain.WithOps(set, 3)}) {
		t.Errorf("a decoded list reads %v, %d fallbacks, %v", archs, fallbacks, err)
	}
}

// FuzzArchTuple: on any bytes, as a tuple readArchOps reads what the
// strings.Fields reference reads, with and without a catalog for an
// " ops=" suffix; as a list ArchList decodes what json.Unmarshal into
// []string decodes, and its tuples parse as the reference parses them.
func FuzzArchTuple(f *testing.F) {
	for _, s := range archTupleSeeds {
		f.Add([]byte(s))
	}
	set := testCatalog(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkArchTuple(t, set, data)
		checkArchList(t, set, data)
	})
}
