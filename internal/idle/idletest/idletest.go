// Package idletest checks the rule every user of idle.List follows: an
// arena that goes idle pins nothing of the request it served.
package idletest

import (
	"fmt"
	"reflect"
	"runtime"
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
}

func (w *walker) walk(v reflect.Value, path string) {
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
		w.found = append(w.found, path+" ("+v.Type().String()+")")
	case reflect.Map, reflect.String:
		if v.Len() > 0 {
			w.found = append(w.found, fmt.Sprintf("%s (%s of %d)", path, v.Type(), v.Len()))
		}
	case reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
		if !v.IsZero() {
			w.found = append(w.found, path+" ("+v.Type().String()+")")
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
