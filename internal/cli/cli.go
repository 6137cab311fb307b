// Package cli holds small helpers shared by the cfp-* command-line
// tools: architecture-tuple parsing and the Tool builder that
// registers the standard cross-cutting flags every tool repeats —
// telemetry (-trace, -metrics, -pprof) and the persistent evaluation
// cache (-cache-dir, -cache) — and owns their lifecycle (start, lazy
// cache open, flush-on-close).
package cli

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"customfit/internal/evcache"
	"customfit/internal/fleetcache"
	"customfit/internal/machine"
	"customfit/internal/obs"
	olog "customfit/internal/obs/log"
	"customfit/internal/sched"
)

// ParseArch parses the paper's positional architecture tuple
// "a m r p2 l2 c" (e.g. "8 2 128 1 4 4") and validates it: exactly six
// decimal integers separated by white space, nothing before, between or
// after them.
func ParseArch(s string) (machine.Arch, error) {
	var a machine.Arch
	fields := strings.Fields(s)
	dst := [...]*int{&a.ALUs, &a.MULs, &a.Regs, &a.L2Ports, &a.L2Lat, &a.Clusters}
	ok := len(fields) == len(dst)
	for i := 0; ok && i < len(dst); i++ {
		var err error
		*dst[i], err = strconv.Atoi(fields[i])
		ok = err == nil
	}
	if !ok {
		return machine.Arch{}, fmt.Errorf("architecture must be six integers \"a m r p2 l2 c\", got %q", s)
	}
	if err := a.Validate(); err != nil {
		return a, err
	}
	return a, nil
}

// ParseArchOps parses the op-aware wire tuple: the positional 6-tuple
// optionally followed by " ops=<hexmask>" naming an enable mask over
// set (FormatArch's output). A suffix with a nil set is an error — the
// receiver has no catalog to resolve the mask against.
func ParseArchOps(s string, set *machine.OpSet) (machine.Arch, error) {
	tuple, suffix, found := strings.Cut(s, " ops=")
	a, err := ParseArch(tuple)
	if err != nil || !found {
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
	if err := a.Validate(); err != nil {
		return a, err
	}
	return a, nil
}

// readArchOps is ParseArchOps on the bytes of a tuple, without a string
// for the one spelling the coordinator sends an op-free machine in: six
// unsigned decimal integers of at most maxDigits digits with one space
// between each and nothing around them (FormatArch's), which it scans
// where they lie (fast true). Every other spelling — an " ops=" suffix,
// other white space, a sign — goes to ParseArchOps on a string of the
// bytes (fast false). Either way it returns what ParseArchOps does.
func readArchOps(b []byte, set *machine.OpSet) (a machine.Arch, fast bool, err error) {
	if a, ok := scanArch(b); ok {
		return a, true, a.Validate()
	}
	a, err = ParseArchOps(string(b), set)
	return a, false, err
}

// maxDigits is the longest run of decimal digits an int always holds.
const maxDigits = 9 * strconv.IntSize / 32

// scanArch reads the six integers of FormatArch's op-free spelling, or
// declines (ok false) anything else.
func scanArch(b []byte) (a machine.Arch, ok bool) {
	i := 0
	for f, dst := range [...]*int{&a.ALUs, &a.MULs, &a.Regs, &a.L2Ports, &a.L2Lat, &a.Clusters} {
		if f > 0 {
			if i == len(b) || b[i] != ' ' {
				return a, false
			}
			i++
		}
		start := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			*dst = *dst*10 + int(b[i]-'0')
			i++
		}
		if i == start || i-start > maxDigits {
			return a, false
		}
	}
	return a, i == len(b)
}

// ArchList is a JSON array of architecture tuples, as a request carries
// it, decoded without a string per tuple. A list whose elements are all
// plain strings — printable ASCII without a quote or backslash, which
// encoding/json reads as the bytes between the quotes — is kept as one
// copy of its text, and Archs reads the tuples where they lie; any other
// list goes through encoding/json into strings.
type ArchList struct {
	text []byte   // the list as sent, when its elements are plain
	strs []string // the elements, when they are not
	n    int
}

// UnmarshalJSON implements json.Unmarshaler.
func (l *ArchList) UnmarshalJSON(data []byte) error {
	*l = ArchList{}
	if n, ok := plainList(data); ok {
		l.text, l.n = bytes.Clone(data), n
		return nil
	}
	if err := json.Unmarshal(data, &l.strs); err != nil {
		return err
	}
	l.n = len(l.strs)
	return nil
}

// plainList reports whether data is a JSON array of plain strings, and
// how many: white space around the tokens, nothing else.
func plainList(data []byte) (n int, ok bool) {
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '[' {
		return 0, false
	}
	if i = skipSpace(data, i+1); i < len(data) && data[i] == ']' {
		return 0, skipSpace(data, i+1) == len(data)
	}
	for ; ; n++ {
		if i == len(data) || data[i] != '"' {
			return 0, false
		}
		for i++; i < len(data) && data[i] != '"'; i++ {
			if c := data[i]; c < 0x20 || c >= 0x7f || c == '\\' {
				return 0, false
			}
		}
		if i == len(data) {
			return 0, false
		}
		if i = skipSpace(data, i+1); i == len(data) {
			return 0, false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case ']':
			return n + 1, skipSpace(data, i+1) == len(data)
		default:
			return 0, false
		}
	}
}

// skipSpace returns the offset of the first byte at or after i that is
// not JSON white space.
func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}

// Len is the number of tuples in the list.
func (l *ArchList) Len() int { return l.n }

// Archs parses the tuples in order with readArchOps — ParseArchOps for a
// list encoding/json decoded — and stops at the first that does not
// parse. fallbacks counts the tuples readArchOps did not scan itself.
func (l *ArchList) Archs(set *machine.OpSet) (archs []machine.Arch, fallbacks int, err error) {
	if l.n == 0 {
		return nil, 0, nil
	}
	archs = make([]machine.Arch, 0, l.n)
	if l.text == nil {
		for _, s := range l.strs {
			a, err := ParseArchOps(s, set)
			if err != nil {
				return nil, len(archs) + 1, err
			}
			archs = append(archs, a)
		}
		return archs, len(archs), nil
	}
	for i := 0; len(archs) < l.n; {
		start := i + bytes.IndexByte(l.text[i:], '"') + 1
		i = start + bytes.IndexByte(l.text[start:], '"')
		a, fast, err := readArchOps(l.text[start:i], set)
		if !fast {
			fallbacks++
		}
		if err != nil {
			return nil, fallbacks, err
		}
		archs = append(archs, a)
		i++
	}
	return archs, fallbacks, nil
}

// FormatArch renders an architecture in the positional wire form
// ParseArchOps reads: "a m r p2 l2 c", plus " ops=<hexmask>" when the
// architecture enables custom ops.
func FormatArch(a machine.Arch) string {
	b := make([]byte, 0, 32)
	for i, v := range [...]int{a.ALUs, a.MULs, a.Regs, a.L2Ports, a.L2Lat, a.Clusters} {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	if !a.Ops.Empty() {
		b = strconv.AppendUint(append(b, " ops="...), a.Ops.Mask, 16)
	}
	return string(b)
}

// Telemetry carries the standard observability flag values and the
// collector they enable. Collection stays off (the obs nil-sink fast
// path) unless -trace or -metrics is given.
type Telemetry struct {
	TracePath   string
	MetricsPath string
	PprofAddr   string

	collector *obs.Collector
}

// AddTelemetryFlagsTo registers -trace, -metrics and -pprof on fs. Call
// before parsing; call Start after it and Stop before exiting.
func AddTelemetryFlagsTo(fs *flag.FlagSet) *Telemetry {
	t := &Telemetry{}
	fs.StringVar(&t.TracePath, "trace", "",
		"write pipeline spans to FILE as Chrome trace_event JSON (open in chrome://tracing or https://ui.perfetto.dev)")
	fs.StringVar(&t.MetricsPath, "metrics", "",
		"write the Prometheus text exposition (counters, gauges, histograms, per-span totals; what cfp-serve's /metrics answers) to FILE on exit")
	fs.StringVar(&t.PprofAddr, "pprof", "",
		"serve Go net/http/pprof on ADDR (e.g. localhost:6060) for live CPU/heap profiling")
	return t
}

// CacheConfig carries the persistent evaluation-cache flag values
// (-cache-dir, -cache, -cache-peer). Zero-valued it opens nothing: the
// cache is opt-in via -cache-dir or -cache-peer.
type CacheConfig struct {
	Dir  string
	Mode string
	// Peer is a cfp-serve base URL whose /v1/cache endpoints back the
	// local cache as a fleet-shared second tier (read-through on miss,
	// async write-behind on compute).
	Peer string
}

// AddCacheFlagsTo registers -cache-dir, -cache and -cache-peer on fs.
// Call before parsing; call Open after it.
func AddCacheFlagsTo(fs *flag.FlagSet) *CacheConfig {
	c := &CacheConfig{}
	fs.StringVar(&c.Dir, "cache-dir", "",
		"persist evaluation sweeps under DIR (content-addressed; identical results, warm re-runs skip all backend work — see docs/PERFORMANCE.md)")
	fs.StringVar(&c.Mode, "cache", "on",
		`"on" or "off"; "off" ignores -cache-dir and -cache-peer for this run (cold measurement without clearing the directory)`)
	fs.StringVar(&c.Peer, "cache-peer", "",
		"cfp-serve URL backing the cache as a fleet-shared tier: misses read through to the peer, computes write behind to it (see docs/PERFORMANCE.md)")
	return c
}

// Open opens the configured cache, or returns nil (no caching) when
// neither -cache-dir nor -cache-peer was given, or -cache=off. With
// only -cache-peer the local tier is memory-resident (no persistence)
// and the peer supplies warm entries. Callers must Close a non-nil
// cache before exiting to flush dirty shards and drain write-behind.
func (c *CacheConfig) Open() (*evcache.Cache, error) {
	if c.Mode == "off" || (c.Dir == "" && c.Peer == "") {
		return nil, nil
	}
	cc, err := evcache.Open(c.Dir)
	if err != nil {
		return nil, err
	}
	if c.Peer != "" {
		peer := c.Peer
		if !strings.Contains(peer, "://") {
			peer = "http://" + peer
		}
		cc.SetRemote(fleetcache.New(peer, nil), evcache.RemoteOptions{})
	}
	return cc, nil
}

// Tool bundles the cross-cutting flag wiring shared by every cfp-*
// command: telemetry always, plus the evaluation-cache and custom-op
// flags for the tools that opt in. Construct it before flag.Parse,
// Start it after, and defer Close:
//
//	tool := cli.NewTool("cfp-explore", cli.WithCache())
//	flag.Parse()
//	if err := tool.Start(); err != nil { tool.Fatal(err) }
//	defer tool.Close()
type Tool struct {
	// Name prefixes diagnostics ("cfp-explore: ...").
	Name string
	// Telemetry is the -trace/-metrics/-pprof flag set (always
	// registered).
	Telemetry *Telemetry
	// CacheCfg is non-nil when WithCache registered -cache-dir/-cache.
	CacheCfg *CacheConfig
	// OpsSel / OpsN are non-nil when WithOps registered -ops/-ops-n:
	// the custom-op selector ("off", "auto" or a catalog file path —
	// resolve with core.ResolveOps) and the auto-mined set size.
	OpsSel *string
	OpsN   *int

	// LogFormat and LogLevel hold the -log-format/-log-level values;
	// Start builds the process-global structured logger from them.
	LogFormat string
	LogLevel  string

	version     *bool
	cache       *evcache.Cache
	cacheOpened bool
}

// VersionString renders the tool's identity line: module version, Go
// runtime, and the backend code-generation fingerprint. The fingerprint
// is the part that matters operationally — the distributed coordinator
// refuses workers whose fingerprint differs from its own, since mixed
// backends would silently break bit-identical merges.
func VersionString(name string) string {
	ver := "(devel)"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		ver = bi.Main.Version
	}
	return fmt.Sprintf("%s %s %s backend %s", name, ver, runtime.Version(), sched.Fingerprint())
}

// ToolOption customizes NewTool.
type ToolOption func(*Tool, *flag.FlagSet)

// WithCache registers the persistent evaluation-cache flags
// (-cache-dir, -cache).
func WithCache() ToolOption {
	return func(t *Tool, fs *flag.FlagSet) { t.CacheCfg = AddCacheFlagsTo(fs) }
}

// WithOps registers -ops and -ops-n: the custom-op axis of the
// extensible architecture template (docs/CUSTOMOPS.md).
func WithOps() ToolOption {
	return func(t *Tool, fs *flag.FlagSet) {
		t.OpsSel = fs.String("ops", "off",
			`custom-op axis: "off" (the paper's 6-tuple template), "auto" (mine fused-op candidates from the benchmarks' dataflow graphs), or a catalog FILE of op specs, one "name/nin/lat: step; ..." per line`)
		t.OpsN = fs.Int("ops-n", 0,
			"with -ops=auto, keep the top N mined candidates (0 = default)")
	}
}

// NewTool registers the standard flags on the default flag set. Call
// before flag.Parse.
func NewTool(name string, opts ...ToolOption) *Tool {
	return NewToolOn(flag.CommandLine, name, opts...)
}

// NewToolOn is NewTool on an explicit flag set (tests).
func NewToolOn(fs *flag.FlagSet, name string, opts ...ToolOption) *Tool {
	t := &Tool{Name: name, Telemetry: AddTelemetryFlagsTo(fs)}
	t.version = fs.Bool("version", false,
		"print the tool version (module version, Go runtime, backend fingerprint) and exit")
	fs.StringVar(&t.LogFormat, "log-format", "text",
		`structured log output on stderr: "text" (key=value) or "json" (one object per line)`)
	fs.StringVar(&t.LogLevel, "log-level", "info",
		"minimum log level: debug, info, warn or error")
	for _, o := range opts {
		o(t, fs)
	}
	return t
}

// Start brings up everything the parsed flags asked for (telemetry
// collector, pprof listener). Call after flag.Parse. When -version was
// given it prints the identity line and exits 0 before starting
// anything. -cache is validated here, once: everything downstream
// (CacheConfig.Open, the distributed coordinator) compares the value
// with "off" and may rely on it being exactly "on" or "off".
func (t *Tool) Start() error {
	if t.version != nil && *t.version {
		fmt.Println(VersionString(t.Name))
		os.Exit(0)
	}
	if c := t.CacheCfg; c != nil && c.Mode != "on" && c.Mode != "off" {
		return fmt.Errorf(`cli: -cache=%q: want "on" or "off"`, c.Mode)
	}
	lg, err := olog.Setup(os.Stderr, t.LogFormat, t.LogLevel)
	if err != nil {
		return fmt.Errorf("cli: %w", err)
	}
	olog.Install(lg)
	return t.Telemetry.Start()
}

// OpenCache lazily opens the configured evaluation cache, or returns
// nil when the tool has no cache flags, -cache-dir was not given, or
// -cache=off. The Tool owns the cache: Close flushes it.
func (t *Tool) OpenCache() (*evcache.Cache, error) {
	if t.cacheOpened {
		return t.cache, nil
	}
	if t.CacheCfg == nil {
		return nil, nil
	}
	c, err := t.CacheCfg.Open()
	if err != nil {
		return nil, err
	}
	t.cache, t.cacheOpened = c, true
	return c, nil
}

// Close flushes the cache and the telemetry sinks, reporting failures
// to stderr under the tool's name (shutdown errors should not mask the
// tool's own output or exit status).
func (t *Tool) Close() {
	if t.cache != nil {
		if err := t.cache.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: cache: %v\n", t.Name, err)
		}
		t.cache, t.cacheOpened = nil, false
	}
	if err := t.Telemetry.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: telemetry: %v\n", t.Name, err)
	}
}

// Fatal prints err under the tool's name, closes the tool (flushing
// telemetry and cache), and exits 1.
func (t *Tool) Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", t.Name, err)
	t.Close()
	os.Exit(1)
}

// Start installs a collector if -trace or -metrics was given and starts
// the pprof listener if -pprof was given.
func (t *Telemetry) Start() error {
	if t.TracePath != "" || t.MetricsPath != "" {
		t.collector = obs.NewCollector()
		obs.Install(t.collector)
	}
	if t.PprofAddr != "" {
		ln, err := net.Listen("tcp", t.PprofAddr)
		if err != nil {
			return fmt.Errorf("cli: pprof listener: %w", err)
		}
		fmt.Fprintf(os.Stderr, "pprof serving on http://%s/debug/pprof/\n", ln.Addr())
		go func() {
			// DefaultServeMux carries the pprof handlers (blank import).
			_ = http.Serve(ln, nil)
		}()
	}
	return nil
}

// Stop flushes the trace and metrics files (when requested) and
// uninstalls the collector.
func (t *Telemetry) Stop() error {
	if t.collector == nil {
		return nil
	}
	obs.Install(nil)
	if t.TracePath != "" {
		if err := t.collector.WriteTraceFile(t.TracePath); err != nil {
			return err
		}
	}
	if t.MetricsPath == "" {
		return nil
	}
	f, err := os.Create(t.MetricsPath)
	if err != nil {
		return err
	}
	if err := t.collector.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
