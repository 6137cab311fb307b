package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded by
// the benchmark around its calls into the program; the program's own
// obs spans stay off.
type span struct {
	Name   string
	Start  time.Time
	End    time.Time
	Parent int // index into recorder.spans, -1 for a root
	Op     int // the op the span belongs to; spans of one op share it
}

// spanRef is the handle of an open span. A nil *spanRef is a span of an
// untraced run: every method does nothing.
type spanRef struct {
	rec *recorder
	id  int
	op  int
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per boundary.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// start opens a span under parent (nil for a root).
func (r *recorder) start(parent *spanRef, name string, op int) *spanRef {
	if r == nil {
		return nil
	}
	pid := -1
	if parent != nil {
		pid = parent.id
	}
	now := time.Now()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: pid, Op: op})
	r.mu.Unlock()
	return &spanRef{rec: r, id: id, op: op}
}

// child opens a span under s in the same op; nil-safe.
func (s *spanRef) child(name string) *spanRef {
	if s == nil {
		return nil
	}
	return s.rec.start(s, name, s.op)
}

func (s *spanRef) end() {
	if s == nil {
		return
	}
	now := time.Now()
	s.rec.mu.Lock()
	s.rec.spans[s.id].End = now
	s.rec.mu.Unlock()
}

// timed runs f inside a child span of parent.
func timed(parent *spanRef, name string, f func()) {
	sp := parent.child(name)
	f()
	sp.end()
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (overlapping children are counted
// once).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start.Before(spans[ks[b]].Start) })
		var covered time.Duration
		edge := s.Start
		for _, k := range ks {
			from, to := spans[k].Start, spans[k].End
			if from.Before(edge) {
				from = edge
			}
			if to.After(s.End) {
				to = s.End
			}
			if to.After(from) {
				covered += to.Sub(from)
				edge = to
			}
		}
		out[i] = s.End.Sub(s.Start) - covered
	}
	return out
}

// budgetRow is one line of the per-layer budget table.
type budgetRow struct {
	Name  string
	Calls int
	Self  time.Duration
	Share float64 // of the parent's total time
}

// budget sums self time by span name below every span named parent and
// returns the rows (largest first) and the share of the parents' time
// that no child span accounts for.
func budget(spans []span, parent string) (rows []budgetRow, unattributed float64) {
	self := selfTimes(spans)
	// under[i] is true when span i lies below a span named parent.
	under := make([]bool, len(spans))
	var total, parentSelf time.Duration
	byName := map[string]*budgetRow{}
	for i, s := range spans { // parents precede their children
		if s.Name == parent {
			total += s.End.Sub(s.Start)
			parentSelf += self[i]
			under[i] = true
			continue
		}
		if s.Parent < 0 || !under[s.Parent] {
			continue
		}
		under[i] = true
		r := byName[s.Name]
		if r == nil {
			r = &budgetRow{Name: s.Name}
			byName[s.Name] = r
		}
		r.Calls++
		r.Self += self[i]
	}
	if total == 0 {
		return nil, 0
	}
	for _, r := range byName {
		r.Share = float64(r.Self) / float64(total)
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Self > rows[j].Self })
	return rows, float64(parentSelf) / float64(total)
}

// writeChromeTrace writes the spans as Chrome trace-event JSON
// (chrome://tracing, Perfetto): complete events, one track per op.
func (r *recorder) writeChromeTrace(path string) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	if len(spans) == 0 {
		return nil
	}
	t0 := spans[0].Start
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Op,
			Ts:  float64(s.Start.Sub(t0)) / float64(time.Microsecond),
			Dur: float64(s.End.Sub(s.Start)) / float64(time.Microsecond),
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
