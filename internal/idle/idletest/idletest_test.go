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
