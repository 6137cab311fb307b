package idletest

import (
	"reflect"
	"strings"
	"testing"
)

type sub struct{ names []string }

type arena struct {
	ints  []int
	ptrs  []*int
	rows  [][]*int
	index map[*int]int
	name  string
	own   *sub
	other *sub
}

func TestPinnedLooksPastLen(t *testing.T) {
	x := 1
	clean := &arena{ints: []int{1, 2}, ptrs: make([]*int, 2, 8), index: map[*int]int{}, own: &sub{names: make([]string, 0, 4)}}
	if got := Pinned(clean, reflect.TypeOf(sub{})); len(got) != 0 {
		t.Errorf("a clean arena reads as pinning %v", got)
	}
	dirty := &arena{
		ptrs:  append(make([]*int, 0, 8), nil, nil, nil, &x)[:1], // stale beyond the length
		rows:  [][]*int{{&x}}[:0],
		index: map[*int]int{&x: 1},
		name:  "kernel",
		own:   &sub{names: append(make([]string, 0, 4), "block")[:0]},
		other: &sub{},
	}
	got := strings.Join(Pinned(dirty, reflect.TypeOf(sub{})), "\n")
	for _, want := range []string{"arena.ptrs[3 of 1:8]", "arena.rows[0 of 0:1][0 of 1:1]", "arena.index", "arena.name", "arena.own.names[0 of 0:4]"} {
		if !strings.Contains(got, want) {
			t.Errorf("Pinned missed %s; it found:\n%s", want, got)
		}
	}
	if strings.Count(got, "\n") != 4 {
		t.Errorf("Pinned found other than the five references:\n%s", got)
	}
}

// TestIntoFindsViewsOfTheKernel gives an arena two references into a
// kernel's memory: a pointer left behind a list's length, which Pinned
// finds too, and a view of the kernel's int array, which Pinned takes for
// one of the arena's own tables. Into must find both, and nothing in an
// arena whose tables are its own.
func TestIntoFindsViewsOfTheKernel(t *testing.T) {
	type kernel struct {
		homes []int
		node  *int
	}
	x := 1
	k := &kernel{homes: make([]int, 8), node: &x}
	clean := &arena{ints: make([]int, 8), ptrs: make([]*int, 0, 4), own: &sub{}}
	if got := Into(clean, k, reflect.TypeOf(sub{})); len(got) != 0 {
		t.Errorf("an arena of its own tables reads as pointing into the kernel: %v", got)
	}
	dirty := &arena{ints: k.homes[2:4], ptrs: append(make([]*int, 0, 4), k.node)[:0]}
	got := strings.Join(Into(dirty, k), "\n")
	for _, want := range []string{"arena.ints ", "arena.ptrs[0 of 0:4]"} {
		if !strings.Contains(got, want) {
			t.Errorf("Into missed %s; it found:\n%s", want, got)
		}
	}
	if strings.Count(got, "\n") != 1 {
		t.Errorf("Into found other than the two references:\n%s", got)
	}
	if p := strings.Join(Pinned(dirty), "\n"); strings.Contains(p, "arena.ints") {
		t.Errorf("Pinned reads a table of ints as a reference: %s", p)
	}
}
