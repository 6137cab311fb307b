package obs

import (
	"context"
	"strings"
	"testing"
)

func TestTraceParentRoundTrip(t *testing.T) {
	install(t)
	sp := StartSpan("serve.job")
	defer sp.End()
	sc := sp.Context()
	if !sc.Valid() {
		t.Fatalf("live span context invalid: %+v", sc)
	}
	hdr := sc.TraceParent()
	if len(hdr) != 55 || !strings.HasPrefix(hdr, "00-") {
		t.Fatalf("bad traceparent %q", hdr)
	}
	got, ok := ParseTraceParent(hdr)
	if !ok {
		t.Fatalf("ParseTraceParent(%q) rejected", hdr)
	}
	if got != sc {
		t.Errorf("round trip: got %+v want %+v", got, sc)
	}
}

func TestParseTraceParentRejects(t *testing.T) {
	valid := "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
	if _, ok := ParseTraceParent(valid); !ok {
		t.Fatal("valid header rejected")
	}
	bad := []string{
		"",
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef",      // short
		"zz-0123456789abcdef0123456789abcdef-0123456789abcdef-01",   // bad version
		"00-0123456789abcdef0123456789abcdeg-0123456789abcdef-01",   // non-hex trace
		"00-00000000000000000000000000000000-0123456789abcdef-01",   // zero trace
		"00-0123456789abcdef0123456789abcdef-0000000000000000-01",   // zero span
		"00x0123456789abcdef0123456789abcdef-0123456789abcdef-01",   // bad dash
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef-01-x", // long
	}
	for _, h := range bad {
		if _, ok := ParseTraceParent(h); ok {
			t.Errorf("ParseTraceParent(%q) accepted, want rejection", h)
		}
	}
}

func TestStartSpanInAdoptsRemoteContext(t *testing.T) {
	c := install(t)
	remote := SpanContext{Trace: TraceID{1, 2, 3}, Span: SpanID{9, 8, 7}}
	sp := StartSpanIn(remote, "serve.job")
	child := sp.Child("evaluate")
	child.End()
	sp.End()
	evs := c.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	for _, e := range evs {
		if e.Trace != remote.Trace {
			t.Errorf("%s: trace %s, want remote %s", e.Name, e.Trace, remote.Trace)
		}
	}
	byName := map[string]Event{}
	for _, e := range evs {
		byName[e.Name] = e
	}
	if byName["serve.job"].Parent != remote.Span {
		t.Errorf("serve.job parent %s, want remote span %s", byName["serve.job"].Parent, remote.Span)
	}
	if byName["evaluate"].Parent != byName["serve.job"].ID {
		t.Errorf("evaluate not parented under serve.job")
	}
}

func TestStartSpanCtxParentsUnderContextSpan(t *testing.T) {
	c := install(t)
	root := StartSpan("dist.explore")
	ctx := ContextWithSpan(context.Background(), root)
	sp := StartSpanCtx(ctx, "dse.explore")
	sp.End()
	root.End()
	evs := c.Events()
	byName := map[string]Event{}
	for _, e := range evs {
		byName[e.Name] = e
	}
	de := byName["dse.explore"]
	re := byName["dist.explore"]
	if de.Trace != re.Trace || de.Parent != re.ID {
		t.Errorf("dse.explore not a child of dist.explore: %+v vs %+v", de, re)
	}
	// Without a context span it must start a fresh root.
	orphan := StartSpanCtx(context.Background(), "lone")
	orphan.End()
	var oe Event
	for _, e := range c.Events() {
		if e.Name == "lone" {
			oe = e
		}
	}
	if oe.Trace == re.Trace || oe.Parent != (SpanID{}) {
		t.Errorf("orphan span inherited identity: %+v", oe)
	}
}

func TestTakeSubtreeRemovesOnlyDescendants(t *testing.T) {
	c := install(t)
	job := StartSpan("serve.job")
	ev := job.Child("evaluate")
	ev.Child("sched").End()
	ev.End()
	other := StartSpan("unrelated")
	other.End()
	job.End()

	evs := job.TakeSubtree()
	names := make([]string, len(evs))
	for i, e := range evs {
		names[i] = e.Name
	}
	if len(evs) != 3 {
		t.Fatalf("TakeSubtree got %v, want [sched evaluate serve.job] in some order", names)
	}
	for _, e := range evs {
		if e.Name == "unrelated" {
			t.Fatalf("TakeSubtree stole an unrelated root: %v", names)
		}
	}
	rest := c.Events()
	if len(rest) != 1 || rest[0].Name != "unrelated" {
		t.Errorf("collector left with %+v, want only the unrelated root", rest)
	}
	// Taking again yields nothing: the subtree was removed.
	if again := job.TakeSubtree(); len(again) != 0 {
		t.Errorf("second TakeSubtree returned %d events, want 0", len(again))
	}
}

func TestAdoptRemoteMergesIntoLocalTrace(t *testing.T) {
	// Worker side: a job span with children, captured and wired.
	wc := install(t)
	remote := SpanContext{Trace: TraceID{0xaa}, Span: SpanID{0xbb}}
	job := StartSpanIn(remote, "serve.job")
	job.Str("kind", "explore")
	ev := job.Child("evaluate")
	ev.Int("archs", 24)
	ev.End()
	job.End()
	wire := ToWire(job.TakeSubtree())
	if len(wire) != 2 {
		t.Fatalf("wire: %d spans, want 2", len(wire))
	}
	Install(nil)

	// Coordinator side: adopt under a dist.shard span.
	cc := install(t)
	_ = wc // worker collector no longer installed
	rootSpan := StartSpan("dist.explore")
	shard := rootSpan.Fork("dist.shard")
	shard.AdoptRemote(wire)
	shard.End()
	rootSpan.End()

	evs := cc.Events()
	byName := map[string]Event{}
	for _, e := range evs {
		byName[e.Name] = e
	}
	se, ok := byName["serve.job"]
	if !ok {
		t.Fatalf("adopted serve.job missing: %+v", evs)
	}
	sh := byName["dist.shard"]
	if se.Trace != sh.Trace {
		t.Errorf("adopted span kept foreign trace %s, want %s", se.Trace, sh.Trace)
	}
	if se.Parent != sh.ID {
		t.Errorf("adopted root parent %s, want dist.shard %s", se.Parent, sh.ID)
	}
	ee := byName["evaluate"]
	if ee.Parent != se.ID || ee.Trace != sh.Trace {
		t.Errorf("adopted child lost its chain: %+v", ee)
	}
	if se.Start < sh.Start {
		t.Errorf("adopted span starts before its shard: %v < %v", se.Start, sh.Start)
	}
	// Attributes survive the wire round trip.
	found := false
	for _, a := range se.Attrs {
		if a.Key == "kind" && a.Value() == "explore" {
			found = true
		}
	}
	if !found {
		t.Errorf("adopted span lost attrs: %+v", se.Attrs)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	install(t)
	h := GetHistogram("dse.eval_seconds")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	qs := h.Quantiles(0.5, 0.95, 0.99)
	if len(qs) != 3 {
		t.Fatalf("got %d quantiles, want 3", len(qs))
	}
	if qs[0] < 45 || qs[0] > 55 {
		t.Errorf("p50 = %v, want ~50", qs[0])
	}
	if qs[1] < 90 || qs[1] > 100 {
		t.Errorf("p95 = %v, want ~95", qs[1])
	}
	if qs[2] < qs[1] || qs[2] > 100 {
		t.Errorf("p99 = %v, want >= p95 and <= 100", qs[2])
	}
	var nilH *Histogram
	if got := nilH.Quantiles(0.5); got != nil {
		t.Errorf("nil histogram quantiles = %v, want nil", got)
	}
}

// FuzzParseTraceParent: on any string the parser answers without a
// panic, and what it accepts re-renders as itself. TraceParent writes
// version 00, flags 01 and lower-case hex; the parser takes any version
// and flags and either case (ParseTraceParent), so the input is held to
// the rendering with those three normalised. The rendering parses back
// to the same context.
func FuzzParseTraceParent(f *testing.F) {
	for _, s := range []string{
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef-01",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"01-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-00",
		"",
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef",
		"zz-0123456789abcdef0123456789abcdef-0123456789abcdef-01",
		"00-0123456789abcdef0123456789abcdeg-0123456789abcdef-01",
		"00-00000000000000000000000000000000-0123456789abcdef-01",
		"00-0123456789abcdef0123456789abcdef-0000000000000000-01",
		"00x0123456789abcdef0123456789abcdef-0123456789abcdef-01",
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef-01-x",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, v string) {
		sc, ok := ParseTraceParent(v)
		if !ok {
			if sc != (SpanContext{}) {
				t.Fatalf("ParseTraceParent(%q) refuses it but returns %+v", v, sc)
			}
			return
		}
		got := sc.TraceParent()
		if want := "00" + strings.ToLower(v[2:len(v)-2]) + "01"; got != want {
			t.Fatalf("ParseTraceParent(%q) renders as %q, want %q", v, got, want)
		}
		if back, ok := ParseTraceParent(got); !ok || back != sc {
			t.Fatalf("ParseTraceParent(%q) = %+v renders as %q, which parses as %+v, %v", v, sc, got, back, ok)
		}
	})
}
