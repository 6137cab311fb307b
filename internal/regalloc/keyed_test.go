package regalloc

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// TestSortKeyedMatchesIndirectSort holds sortKeyed to the sorts it
// replaced, which compared range indices by chasing them to their
// ranges on every comparison: the first-birth order colorCluster sorts
// by and the longest-span-first order of the victims, on random ranges
// with few distinct keys (many ties) at every length up to a few
// hundred. The permutation must be the same, ties included, or the
// allocator would colour and spill differently.
func TestSortKeyedMatchesIndirectSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sc := NewScratch()
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(300)
		distinct := 1 + rng.Intn(8)
		ranges := make([]Range, n)
		for i := range ranges {
			start := rng.Intn(distinct)
			ranges[i].Segments = []Segment{{start, start + rng.Intn(distinct)}}
		}
		idx := rng.Perm(n)
		want := make([]int32, n)
		for i, v := range idx {
			want[i] = int32(v)
		}
		got := slices.Clone(want)

		if trial%2 == 0 {
			slices.SortFunc(want, func(a, b int32) int {
				return cmp.Compare(ranges[a].Segments[0].Start, ranges[b].Segments[0].Start)
			})
			sortKeyed(got, func(ri int32) int { return ranges[ri].Segments[0].Start }, byKey, sc)
		} else {
			slices.SortFunc(want, func(a, b int32) int { return cmp.Compare(ranges[b].Span(), ranges[a].Span()) })
			sortKeyed(got, func(ri int32) int { return ranges[ri].Span() }, byKeyDesc, sc)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d ranges, %d keys): keyed sort %v, indirect sort %v", trial, n, distinct, got, want)
		}
	}
}
