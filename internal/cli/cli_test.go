package cli

import (
	"flag"
	"runtime"
	"strings"
	"testing"

	"customfit/internal/machine"
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
	tool := NewToolOn(fs, "test-tool", WithCache(), WithPrune(true))
	dir := t.TempDir()
	if err := fs.Parse([]string{"-cache-dir", dir, "-prune=false"}); err != nil {
		t.Fatal(err)
	}
	// Every standard cross-cutting flag must be registered exactly once.
	for _, name := range []string{"trace", "metrics", "pprof", "cache-dir", "cache", "prune", "version"} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
	if tool.Prune == nil || *tool.Prune {
		t.Error("-prune=false not honored")
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
