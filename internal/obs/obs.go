// Package obs is the toolchain's zero-dependency telemetry subsystem:
// nestable timed spans over the compilation pipeline, race-safe
// process-wide counters/histograms/gauges for the parallel explorer and
// the simulator, and exporters for Chrome trace_event JSON and the
// Prometheus text exposition (see docs/OBSERVABILITY.md for the span
// taxonomy and metric names).
//
// The package also holds the process logger, a log/slog logger beside
// the collector (Log, SetLogger): until a tool installs one, every line
// is discarded. Call sites use Logger.LogAttrs with typed attributes,
// which builds nothing when the level is off.
//
// Collection is off by default. Until Install is called every entry
// point takes the nil-sink fast path: StartSpan returns a nil *Span,
// GetCounter/GetHistogram return nil, and every method is nil-receiver
// safe — no allocation, no lock, a single atomic load. Hot paths can
// therefore be instrumented unconditionally without disturbing
// bench_test.go numbers.
package obs

import (
	"io"
	"log/slog"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// active is the installed process-global collector; nil means disabled.
var active atomic.Pointer[Collector]

// Install sets the process-global collector. Install(nil) disables
// collection again. Not intended to be toggled concurrently with
// instrumented work: spans started under one collector flush to it
// regardless of later installs.
func Install(c *Collector) { active.Store(c) }

// Active returns the installed collector, or nil when disabled.
func Active() *Collector { return active.Load() }

// Enabled reports whether a collector is installed.
func Enabled() bool { return active.Load() != nil }

// logger is the installed process logger; nil means discard.
var logger atomic.Pointer[slog.Logger]

// discard is Log's answer until a logger is installed: no level is
// enabled, so LogAttrs returns before it builds a record.
var discard = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))

// SetLogger sets the process logger. SetLogger(nil) discards again.
func SetLogger(l *slog.Logger) { logger.Store(l) }

// Log returns the process logger, or one that discards every line.
func Log() *slog.Logger {
	if l := logger.Load(); l != nil {
		return l
	}
	return discard
}

// Collector accumulates spans and metrics for one process (or test).
type Collector struct {
	start time.Time
	// nowFn returns time since start; tests override it for
	// deterministic traces.
	nowFn   func() time.Duration
	nextTID atomic.Int64

	mu     sync.Mutex
	events []Event

	cmu      sync.Mutex
	counters map[string]*Counter

	hmu   sync.Mutex
	hists map[string]*Histogram

	gmu    sync.Mutex
	gauges map[string]float64
}

// NewCollector returns an empty collector clocked by the wall clock.
func NewCollector() *Collector {
	c := &Collector{
		start:    time.Now(),
		counters: map[string]*Counter{},
		hists:    map[string]*Histogram{},
		gauges:   map[string]float64{},
	}
	c.nowFn = func() time.Duration { return time.Since(c.start) }
	return c
}

func (c *Collector) now() time.Duration { return c.nowFn() }

// Events returns a snapshot of the recorded span events.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// attrKind discriminates Attr payloads without interface boxing (which
// would allocate on every attribute even for ints).
type attrKind uint8

const (
	attrInt attrKind = iota + 1
	attrFloat
	attrStr
)

// Attr is one key/value span attribute.
type Attr struct {
	Key  string
	kind attrKind
	i    int64
	f    float64
	s    string
}

// Value returns the attribute's payload for export.
func (a Attr) Value() interface{} {
	switch a.kind {
	case attrInt:
		return a.i
	case attrFloat:
		return a.f
	default:
		return a.s
	}
}

// Event is one completed span.
type Event struct {
	Name string
	TID  int64 // track: root spans get fresh tracks, children inherit
	// Trace/ID/Parent are the span's distributed identity: every span
	// carries a trace ID shared by its whole tree (across processes,
	// via traceparent propagation — see SpanContext) and a unique span
	// ID; Parent is the zero SpanID for trace roots.
	Trace  TraceID
	ID     SpanID
	Parent SpanID
	Start  time.Duration
	Dur    time.Duration
	Attrs  []Attr
}

// Span is an in-flight timed region. A nil *Span is the disabled path:
// every method no-ops and Child returns nil, so instrumented code never
// branches on Enabled().
type Span struct {
	c      *Collector
	name   string
	tid    int64
	trace  TraceID
	id     SpanID
	parent SpanID
	start  time.Duration
	attrs  []Attr
}

// StartSpan begins a root span of a fresh trace on a fresh track.
// Returns nil (a no-op span) when no collector is installed.
func StartSpan(name string) *Span {
	c := active.Load()
	if c == nil {
		return nil
	}
	return &Span{c: c, name: name, tid: c.nextTID.Add(1),
		trace: newTraceID(), id: newSpanID(), start: c.now()}
}

// StartSpanIn begins a root span continuing a propagated trace: the
// span joins sc's trace with sc's span as its parent (the cross-process
// analogue of Child). An invalid sc degrades to StartSpan. Returns nil
// when no collector is installed.
func StartSpanIn(sc SpanContext, name string) *Span {
	s := StartSpan(name)
	if s != nil && sc.Valid() {
		s.trace = sc.Trace
		s.parent = sc.Span
	}
	return s
}

// Under returns a child of parent when parent is non-nil, otherwise a
// new root span. It lets pipeline stages nest under a caller's span
// while still producing a standalone trace when invoked directly.
func Under(parent *Span, name string) *Span {
	if parent != nil {
		return parent.Child(name)
	}
	return StartSpan(name)
}

// Child begins a nested span on the parent's track, inheriting the
// parent's trace.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{c: s.c, name: name, tid: s.tid,
		trace: s.trace, id: newSpanID(), parent: s.id, start: s.c.now()}
}

// Fork begins a child span on its own fresh track: same trace, parented
// under s, but rendered as an independent timeline. Use it for
// concurrent subtasks whose spans would overlap illegibly on the
// parent's track (the explorer forks one track per evaluation).
func (s *Span) Fork(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{c: s.c, name: name, tid: s.c.nextTID.Add(1),
		trace: s.trace, id: newSpanID(), parent: s.id, start: s.c.now()}
}

// Int attaches an integer attribute; returns s for chaining.
func (s *Span) Int(key string, v int64) *Span {
	if s != nil {
		s.attrs = append(s.attrs, Attr{Key: key, kind: attrInt, i: v})
	}
	return s
}

// Float attaches a float attribute; returns s for chaining.
func (s *Span) Float(key string, v float64) *Span {
	if s != nil {
		s.attrs = append(s.attrs, Attr{Key: key, kind: attrFloat, f: v})
	}
	return s
}

// Str attaches a string attribute; returns s for chaining.
func (s *Span) Str(key, v string) *Span {
	if s != nil {
		s.attrs = append(s.attrs, Attr{Key: key, kind: attrStr, s: v})
	}
	return s
}

// End completes the span and records it with its collector.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := s.c.now()
	s.c.mu.Lock()
	s.c.events = append(s.c.events, Event{
		Name:   s.name,
		TID:    s.tid,
		Trace:  s.trace,
		ID:     s.id,
		Parent: s.parent,
		Start:  s.start,
		Dur:    end - s.start,
		Attrs:  s.attrs,
	})
	s.c.mu.Unlock()
}

// Counter is a monotonically increasing atomic metric. A nil *Counter
// no-ops.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter returns the named counter, creating it on first use.
func (c *Collector) Counter(name string) *Counter {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	ct, ok := c.counters[name]
	if !ok {
		ct = &Counter{}
		c.counters[name] = ct
	}
	return ct
}

// GetCounter returns the named counter of the installed collector, or
// nil (a no-op counter) when disabled.
func GetCounter(name string) *Counter {
	c := active.Load()
	if c == nil {
		return nil
	}
	return c.Counter(name)
}

// histReservoirSize bounds the per-histogram sample reservoir backing
// quantile estimates. 1024 samples keep p99 within a few percent while
// capping memory per histogram.
const histReservoirSize = 1024

// Histogram is a race-safe summary (count/sum/min/max plus reservoir
// quantile estimates) of observations. A nil *Histogram no-ops.
type Histogram struct {
	mu       sync.Mutex
	count    int64
	sum      float64
	min, max float64
	// sample is a uniform reservoir over all observations; rng is a
	// per-histogram xorshift64 state (deterministic seed, so tests and
	// repeated runs see stable sampling decisions).
	sample []float64
	rng    uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if len(h.sample) < histReservoirSize {
		h.sample = append(h.sample, v)
	} else {
		// Classic reservoir replacement: the nth observation displaces a
		// random slot with probability size/n.
		if h.rng == 0 {
			h.rng = 0x9E3779B97F4A7C15
		}
		h.rng ^= h.rng << 13
		h.rng ^= h.rng >> 7
		h.rng ^= h.rng << 17
		if i := h.rng % uint64(h.count); i < histReservoirSize {
			h.sample[i] = v
		}
	}
	h.mu.Unlock()
}

// Quantiles returns reservoir-estimated quantiles for each q in qs
// (each in [0,1], nearest-rank on the sampled distribution). Zeros when
// no observations were recorded; nil for a nil histogram.
func (h *Histogram) Quantiles(qs ...float64) []float64 {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	s := append([]float64(nil), h.sample...)
	h.mu.Unlock()
	out := make([]float64, len(qs))
	if len(s) == 0 {
		return out
	}
	sort.Float64s(s)
	for i, q := range qs {
		rank := int(math.Ceil(q * float64(len(s))))
		if rank < 1 {
			rank = 1
		}
		if rank > len(s) {
			rank = len(s)
		}
		out[i] = s[rank-1]
	}
	return out
}

// Summary returns (count, sum, min, max); zeros for a nil histogram.
func (h *Histogram) Summary() (count int64, sum, min, max float64) {
	if h == nil {
		return 0, 0, 0, 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count, h.sum, h.min, h.max
}

// Histogram returns the named histogram, creating it on first use.
func (c *Collector) Histogram(name string) *Histogram {
	c.hmu.Lock()
	defer c.hmu.Unlock()
	h, ok := c.hists[name]
	if !ok {
		h = &Histogram{}
		c.hists[name] = h
	}
	return h
}

// GetHistogram returns the named histogram of the installed collector,
// or nil (a no-op histogram) when disabled.
func GetHistogram(name string) *Histogram {
	c := active.Load()
	if c == nil {
		return nil
	}
	return c.Histogram(name)
}

// SetGauge records a point-in-time value on c (e.g. compiles/sec at the
// end of an exploration).
func (c *Collector) SetGauge(name string, v float64) {
	c.gmu.Lock()
	c.gauges[name] = v
	c.gmu.Unlock()
}

// SetGauge records a gauge on the installed collector; no-op when
// disabled.
func SetGauge(name string, v float64) {
	if c := active.Load(); c != nil {
		c.SetGauge(name, v)
	}
}
