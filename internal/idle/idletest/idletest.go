// Package idletest checks the rule every user of idle.List follows: an
// arena that goes idle pins nothing of the request it served.
package idletest

import (
	"cmp"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"time"
)

// Watch is the collector's side of the rule: objects of a request that
// must be collected while the arena that served it sits idle.
type Watch struct {
	freed   chan string
	pending map[string]bool
}

// Add has w expect obj, the start of a heap allocation, to be
// collected; name says which it was when it is not.
func (w *Watch) Add(obj any, name string) {
	if w.freed == nil {
		w.freed, w.pending = make(chan string, 64), map[string]bool{}
	}
	w.pending[name] = true
	freed := w.freed
	runtime.SetFinalizer(obj, func(any) { freed <- name })
}

// Wait forces collections until every watched object has been
// finalized, and gives up after fifty in vain; it returns the names of
// those still reachable. Between collections it calls touch, with which
// the caller takes the idle arena and hands it back: that keeps the list
// from ageing the arena out, so whatever is collected is collected
// while the arena is idle and not because it went.
func (w *Watch) Wait(touch func()) (reachable []string) {
	for vain := 0; len(w.pending) > 0 && vain < 50; {
		runtime.GC()
		select {
		case name := <-w.freed:
			delete(w.pending, name)
		case <-time.After(5 * time.Millisecond):
			vain++
			touch()
		}
	}
	for name := range w.pending {
		reachable = append(reachable, name)
	}
	return reachable
}

// Pinned walks a released arena — through structs, arrays, every slice
// to its capacity — and returns the path of everything in it that could
// keep a finished request's memory alive: a non-nil pointer, interface,
// func or channel, a non-empty map or string. Slices are followed, not
// reported: their arrays are the arena's own tables. So are pointers to
// the struct types listed in own (a sub-arena, like a Scratch's
// allocator arena), which are walked in turn.
func Pinned(arena any, own ...reflect.Type) []string {
	w := walker{own: own, seen: map[uintptr]bool{}}
	w.walk(reflect.ValueOf(arena).Elem(), reflect.TypeOf(arena).Elem().Name())
	return w.found
}

type walker struct {
	own   []reflect.Type
	seen  map[uintptr]bool
	found []string

	// into, when set, makes the walk Into's: report what lands in it,
	// and nothing else
	into extents
}

func (w *walker) walk(v reflect.Value, path string) {
	if w.into != nil {
		w.check(v, path)
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			w.walk(v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			w.walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Slice:
		if v.IsNil() || !holdsPointers(v.Type().Elem()) {
			return
		}
		all := v.Slice(0, v.Cap())
		for i := 0; i < all.Len(); i++ {
			w.walk(all.Index(i), fmt.Sprintf("%s[%d of %d:%d]", path, i, v.Len(), v.Cap()))
		}
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		for _, t := range w.own {
			if v.Type().Elem() == t {
				if !w.seen[v.Pointer()] {
					w.seen[v.Pointer()] = true
					w.walk(v.Elem(), path)
				}
				return
			}
		}
		w.report(path + " (" + v.Type().String() + ")")
	case reflect.Map, reflect.String:
		if v.Len() > 0 {
			w.report(fmt.Sprintf("%s (%s of %d)", path, v.Type(), v.Len()))
		}
	case reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
		if !v.IsZero() {
			w.report(path + " (" + v.Type().String() + ")")
		}
	}
}

// report notes a reference Pinned finds. Into reports through check
// instead.
func (w *walker) report(what string) {
	if w.into == nil {
		w.found = append(w.found, what)
	}
}

// check reports v, for Into, when it refers into the kernel.
func (w *walker) check(v reflect.Value, path string) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Slice, reflect.UnsafePointer:
		if !v.IsNil() && w.into.holds(v.Pointer()) {
			w.found = append(w.found, path+" ("+v.Type().String()+") points into the kernel")
		}
	}
}

// holdsPointers reports whether a value of type t can hold a reference.
func holdsPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return holdsPointers(t.Elem())
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.String,
		reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
		return true
	}
	return false
}

// Into walks arena as Pinned does and returns the path of every
// reference in it — pointer, map, or slice of any element type — that
// lands in memory reachable from kernel: Pinned's check against one
// request, extended to what Pinned takes for the arena's own tables. A
// slice of pointer-free elements cut from a kernel's array (a copy of
// its register homes that is a view instead, an operand list) pins that
// array as surely as a pointer does, and only this finds it.
func Into(arena, kernel any, own ...reflect.Type) []string {
	var k extents
	k.collect(reflect.ValueOf(kernel), map[extent]bool{})
	// Objects nest (a block in its array), so the spans are merged into
	// disjoint ones, in order.
	slices.SortFunc(k, func(a, b extent) int { return cmp.Compare(a.start, b.start) })
	merged := k[:0]
	for _, e := range k {
		if n := len(merged); n > 0 && e.start < merged[n-1].end {
			merged[n-1].end = max(merged[n-1].end, e.end)
		} else {
			merged = append(merged, e)
		}
	}
	w := walker{own: own, seen: map[uintptr]bool{}, into: merged}
	w.walk(reflect.ValueOf(arena).Elem(), reflect.TypeOf(arena).Elem().Name())
	return w.found
}

// extent is a span of memory [start, end): an object a pointer names,
// or a slice's array through its capacity.
type extent struct{ start, end uintptr }

type extents []extent

// collect records the memory v and everything reachable from it
// occupies, outside v itself.
func (k *extents) collect(v reflect.Value, seen map[extent]bool) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			k.collect(v.Field(i), seen)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			k.collect(v.Index(i), seen)
		}
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		e := extent{v.Pointer(), v.Pointer() + v.Type().Elem().Size()}
		if !seen[e] {
			seen[e] = true
			*k = append(*k, e)
			k.collect(v.Elem(), seen)
		}
	case reflect.Slice:
		if v.Cap() == 0 {
			return
		}
		e := extent{v.Pointer(), v.Pointer() + uintptr(v.Cap())*v.Type().Elem().Size()}
		if !seen[e] {
			seen[e] = true
			*k = append(*k, e)
			all := v.Slice(0, v.Cap())
			for i := 0; i < all.Len(); i++ {
				k.collect(all.Index(i), seen)
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			k.collect(it.Key(), seen)
			k.collect(it.Value(), seen)
		}
	case reflect.Interface:
		if !v.IsNil() {
			k.collect(v.Elem(), seen)
		}
	}
}

// holds reports whether p lies in one of the extents, disjoint and in
// order.
func (k extents) holds(p uintptr) bool {
	i := sort.Search(len(k), func(i int) bool { return k[i].end > p })
	return i < len(k) && k[i].start <= p
}
