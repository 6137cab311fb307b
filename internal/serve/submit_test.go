package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"customfit/internal/cli"
	"customfit/internal/machine"
)

// fullSpaceRequest is the explore request of a one-kernel shard over
// the full space, as the coordinator marshals it (a traced shard's
// context rides the traceparent header, not the body).
func fullSpaceRequest(t testing.TB) (ExploreRequest, []byte) {
	req := ExploreRequest{Benchmarks: []string{"G"}, Width: 96, Unpriced: true}
	for _, a := range machine.FullSpace() {
		req.Archs = append(req.Archs, cli.FormatArch(a))
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return req, body
}

// TestExploreBodyReadsARequest: the handler's reading of an explore
// request is encoding/json's — every member but the archs lands in the
// embedded ExploreRequest, the archs land in the list — and the request
// resolves to its machines under a key that only the result-affecting
// members move.
func TestExploreBodyReadsARequest(t *testing.T) {
	sent, body := fullSpaceRequest(t)
	sent.Sample, sent.Cache = 1, "off"
	body, err := json.Marshal(sent)
	if err != nil {
		t.Fatal(err)
	}
	var got exploreBody
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want := sent
	want.Archs = nil
	if !reflect.DeepEqual(got.ExploreRequest, want) {
		t.Errorf("exploreBody reads %+v, want %+v", got.ExploreRequest, want)
	}
	x, _, err := got.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(x.archs, machine.FullSpace()) || x.width != 96 || x.sample != 1 {
		t.Errorf("resolved to %d archs, width %d, sample %d", len(x.archs), x.width, x.sample)
	}

	// Caching and a default width leave the key alone; everything else
	// moves it.
	keyOf := func(req ExploreRequest) string {
		t.Helper()
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var b exploreBody
		if err := json.Unmarshal(data, &b); err != nil {
			t.Fatal(err)
		}
		x, _, err := b.resolve()
		if err != nil {
			t.Fatal(err)
		}
		return x.key
	}
	base := ExploreRequest{Benchmarks: []string{"G"}, Archs: []string{"8 2 128 1 4 4", "2 1 64 1 4 1"}}
	same := base
	same.Cache, same.Width = "off", 96
	if keyOf(same) != keyOf(base) {
		t.Error("cache or a default width moved the key")
	}
	for name, edit := range map[string]func(*ExploreRequest){
		"benchmarks": func(r *ExploreRequest) { r.Benchmarks = []string{"G", "F"} },
		"width":      func(r *ExploreRequest) { r.Width = 32 },
		"archs":      func(r *ExploreRequest) { r.Archs = r.Archs[:1] },
		"arch order": func(r *ExploreRequest) { r.Archs = []string{r.Archs[1], r.Archs[0]} },
		"sample":     func(r *ExploreRequest) { r.Archs, r.Sample = nil, 24 },
		"ops":        func(r *ExploreRequest) { r.Schema, r.Ops = SchemaVersion, opCatalog },
		"unpriced":   func(r *ExploreRequest) { r.Unpriced = true },
	} {
		other := base
		other.Archs = slices.Clone(base.Archs)
		edit(&other)
		if keyOf(other) == keyOf(base) {
			t.Errorf("requests differing in %s share a key", name)
		}
	}
}

// BenchmarkExploreSubmit reads a one-kernel, full-space (762-tuple)
// explore request the way handleExplore does, short of queueing its
// job: decode, tuple parse and coalesce key.
func BenchmarkExploreSubmit(b *testing.B) {
	sent, body := fullSpaceRequest(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	// Round 0 fills encoding/json's type cache, outside the count.
	for i := -1; i < b.N; i++ {
		if i == 0 {
			b.ResetTimer()
		}
		var req exploreBody
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			b.Fatal(err)
		}
		x, _, err := req.resolve()
		if err != nil || len(x.archs) != len(sent.Archs) || x.key == "" {
			b.Fatalf("resolved to %d archs, key %q: %v", len(x.archs), x.key, err)
		}
	}
}
