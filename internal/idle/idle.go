// Package idle keeps the arenas nobody is working with: a compile's
// sched.Scratch, an optimizer workspace, a simulator engine. One rule
// for all of them — a bounded stack that forgets what the process has
// stopped using — where a sync.Pool would apply the collector's: a pool
// drops what two collections found unused, which a stream of one-shot
// requests (more than one collection each) never survives, and hands a
// Put back only to the P that made it.
package idle

import (
	"runtime"
	"sync"

	"customfit/internal/obs"
)

// maxAge is how many collections in a row may find an arena idle before
// the list lets go of it. Any taker in between starts the count again,
// so a request stream of any rate keeps its arena and a process that has
// moved on (a warm exploration after its cold fill) gives the memory
// back within a few collections.
const maxAge = 4

// List is a stack of idle *T, safe for concurrent use: Get takes the
// one put last (the warmest), Put keeps at most GOMAXPROCS of them —
// more can never be in use at once by goroutines that are running.
// The counters <owner>.arenas_made, arenas_reused and arenas_aged_out
// say what it did.
type List[T any] struct {
	fresh              func() *T
	made, reused, aged string

	mu    sync.Mutex
	idle  []entry[T] // oldest first, so ages descend
	armed bool       // a sentinel is out, its finalizer will tick
	// onCollect is the sentinels' finalizer, made once so that arming
	// one allocates the sentinel alone: what a collection costs each
	// list that has idle arenas, in every allocation count it falls in.
	onCollect func(*sentinel)
}

type entry[T any] struct {
	v   *T
	age int // collections since it was put
}

// sentinel is garbage from birth: its finalizer runs once the next
// collection has noticed. A pointer field keeps it out of the tiny
// allocator, whose objects share a block and a fate.
type sentinel struct{ _ *byte }

// New returns an empty list whose Get makes a T with fresh when it has
// none; owner prefixes its counters.
func New[T any](owner string, fresh func() *T) *List[T] {
	l := &List[T]{fresh: fresh,
		made: owner + ".arenas_made", reused: owner + ".arenas_reused", aged: owner + ".arenas_aged_out"}
	l.onCollect = func(*sentinel) { l.tick() }
	return l
}

// Get returns an idle T, or a new one.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	n := len(l.idle)
	if n == 0 {
		l.mu.Unlock()
		obs.GetCounter(l.made).Inc()
		return l.fresh()
	}
	v := l.idle[n-1].v
	l.idle[n-1] = entry[T]{}
	l.idle = l.idle[:n-1]
	l.mu.Unlock()
	obs.GetCounter(l.reused).Inc()
	return v
}

// Put hands v back. The caller has dropped every pointer v held into
// its request: an idle arena pins nothing.
func (l *List[T]) Put(v *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.idle) >= runtime.GOMAXPROCS(0) {
		return
	}
	l.idle = append(l.idle, entry[T]{v: v})
	if !l.armed {
		l.armed = true
		l.arm()
	}
}

// Wipe zeroes s through its capacity: what a release does to every list
// that carries pointers, so that nothing a request left behind a list's
// length outlives it either.
func Wipe[T any](s []T) { clear(s[:cap(s)]) }

func (l *List[T]) arm() {
	runtime.SetFinalizer(new(sentinel), l.onCollect)
}

// tick is one collection gone by: every idle arena is a collection
// older, those past maxAge go, and while any is left the next collection
// ticks again.
func (l *List[T]) tick() {
	l.mu.Lock()
	defer l.mu.Unlock()
	drop := 0
	for i := range l.idle {
		if l.idle[i].age++; l.idle[i].age >= maxAge {
			drop = i + 1
		}
	}
	if drop > 0 {
		n := copy(l.idle, l.idle[drop:])
		clear(l.idle[n:])
		l.idle = l.idle[:n]
		obs.GetCounter(l.aged).Add(int64(drop))
	}
	if l.armed = len(l.idle) > 0; l.armed {
		l.arm()
	}
}
