package idle

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"customfit/internal/obs"
)

type arena struct {
	table []int
	hung  *payload // what an arena must not keep: see TestIdleArenasAgeOut
}

type payload struct{ _ [64]byte }

// counters installs a collector for the test and returns a reader of
// the three counters of the test's list, whose owner is the test's name:
// an earlier test's list may still be ageing its arenas out.
func counters(t *testing.T) func() (made, reused, aged int64) {
	owner := t.Name()
	col := obs.NewCollector()
	obs.Install(col)
	t.Cleanup(func() { obs.Install(nil) })
	return func() (int64, int64, int64) {
		return col.Counter(owner + ".arenas_made").Value(),
			col.Counter(owner + ".arenas_reused").Value(),
			col.Counter(owner + ".arenas_aged_out").Value()
	}
}

// collectUntil forces collections, giving the finalizer goroutine time
// after each, until done reports true; it gives up after a few seconds'
// worth.
func collectUntil(done func() bool) bool {
	for i := 0; i < 2000 && !done(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	return done()
}

func TestGetPrefersTheWarmest(t *testing.T) {
	read := counters(t)
	l := New(t.Name(), func() *arena { return new(arena) })
	a, b := l.Get(), l.Get()
	if a == b {
		t.Fatal("one arena handed out twice")
	}
	l.Put(a)
	l.Put(b)
	if got := l.Get(); got != b {
		t.Error("Get did not return the arena put last")
	}
	if got := l.Get(); got != a {
		t.Error("the arena put first was lost")
	}
	if made, reused, _ := read(); made != 2 || reused != 2 {
		t.Errorf("made %d reused %d, want 2 and 2", made, reused)
	}
}

func TestPutKeepsAtMostGOMAXPROCS(t *testing.T) {
	read := counters(t)
	l := New(t.Name(), func() *arena { return new(arena) })
	n := runtime.GOMAXPROCS(0)
	for i := 0; i < n+3; i++ {
		l.Put(new(arena))
	}
	for i := 0; i < n+3; i++ {
		l.Get()
	}
	if made, reused, _ := read(); reused != int64(n) || made != 3 {
		t.Errorf("made %d reused %d after putting %d and taking as many; want 3 and %d", made, reused, n+3, n)
	}
}

// TestIdleArenasAgeOut is the half of the rule a warm process needs: an
// arena nobody comes back for is let go after a few collections, and
// what hung off it is collected. The other half — a taker in between
// starts the count again — is the loop in the middle: many more
// collections than maxAge, one Get and Put between each, and the arena
// never changes.
func TestIdleArenasAgeOut(t *testing.T) {
	read := counters(t)
	l := New(t.Name(), func() *arena { return new(arena) })

	first := l.Get()
	l.Put(first)
	for i := 0; i < 3*maxAge; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		a := l.Get()
		if a != first {
			t.Fatalf("a list in use lost its arena after %d collections", i+1)
		}
		l.Put(a)
	}

	freed := make(chan struct{})
	first.hung = new(payload)
	runtime.SetFinalizer(first.hung, func(*payload) { close(freed) })
	first = nil
	if !collectUntil(func() bool { _, _, aged := read(); return aged == 1 }) {
		t.Fatal("an arena nobody took was never aged out")
	}
	if !collectUntil(func() bool {
		select {
		case <-freed:
			return true
		default:
			return false
		}
	}) {
		t.Error("the aged-out arena is still reachable: what hung off it was not collected")
	}
	madeBefore, _, _ := read()
	l.Get()
	if made, _, _ := read(); made != madeBefore+1 {
		t.Error("the list still held an arena after ageing it out")
	}
}

// TestTickRacesGetPut has the ageing tick, which runs on the finalizer
// goroutine, race takers and putters: run under -race.
func TestTickRacesGetPut(t *testing.T) {
	l := New(t.Name(), func() *arena { return &arena{table: make([]int, 8)} })
	stop := make(chan struct{})
	var gc sync.WaitGroup
	gc.Add(1)
	go func() {
		defer gc.Done()
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				a := l.Get()
				for k := range a.table {
					a.table[k] = w // two holders of one arena would race here
				}
				l.Put(a)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	gc.Wait()
}
