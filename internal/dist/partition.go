package dist

import (
	"fmt"

	"customfit/internal/bench"
	"customfit/internal/cli"
	"customfit/internal/dse"
	"customfit/internal/machine"
	"customfit/internal/serve"
)

// gridOpSet returns the single custom-op catalog the grid's op-enabled
// members draw from (nil for an op-free grid), or an error on a grid
// the wire cannot carry: a mixed one — shards of one exploration must
// share one catalog, like one Results file — or one with a MinMax
// machine, which the wire tuple has no field for.
func gridOpSet(grid []machine.Arch) (*machine.OpSet, error) {
	var set *machine.OpSet
	for _, a := range grid {
		if a.MinMax {
			return nil, fmt.Errorf("dist: grid architecture %v has the min/max repertoire, which a shard request cannot carry; explore it locally", a)
		}
		if a.Ops.Empty() {
			continue
		}
		if set == nil {
			set = a.Ops.Set
		} else if set != a.Ops.Set {
			return nil, fmt.Errorf("dist: grid architectures draw from different op catalogs")
		}
	}
	return set, nil
}

// unit is one shard of the (benchmark × architecture) grid: a single
// benchmark against a subset of the grid built from whole backend
// signature classes. indices are positions in the coordinator's grid,
// ascending; tuples is the parallel wire form and digest the digest of
// those machines, both shared with the other benchmarks' units of the
// same chunk. Chunks partition the classes, so no two units of a
// benchmark share a machine: every unit is its own work.
type unit struct {
	id      int
	bench   string
	indices []int
	tuples  []string
	digest  serve.Digest

	// Scheduling state, owned by the coordinator loop.
	retries  int
	hedged   bool
	attempts map[int]*attempt
	done     bool
	m        *serve.Measurement
}

// partitionUnits shards the exploration. Archs are grouped by backend
// signature class (dse.SigKey) in first-seen grid order and whole
// classes are packed into chunks, so every shard reproduces exactly the
// per-class memoization a local run would have had for its cells: one
// physical sweep per (benchmark, class), every member arch charged the
// class sweep's logical runs. Each benchmark is split into roughly
// targetUnits/len(benches) chunks of near-equal arch count (never
// splitting a class). A chunk's tuples are formatted and its machines
// digested once, for all the benchmarks' units.
func partitionUnits(grid []machine.Arch, benches []*bench.Benchmark, targetUnits int) []*unit {
	// Signature classes, first-seen order, members in grid order.
	var classes [][]int
	classAt := map[string]int{}
	for i, a := range grid {
		k := dse.SigKey(a)
		ci, ok := classAt[k]
		if !ok {
			ci = len(classes)
			classAt[k] = ci
			classes = append(classes, nil)
		}
		classes[ci] = append(classes[ci], i)
	}

	perBench := targetUnits / len(benches)
	if perBench < 1 {
		perBench = 1
	}
	if perBench > len(classes) {
		perBench = len(classes)
	}
	chunks := chunkClasses(classes, perBench, len(grid))
	tuples := make([][]string, len(chunks))
	digests := make([]serve.Digest, len(chunks))
	for ci, chunk := range chunks {
		tuples[ci] = make([]string, len(chunk))
		digests[ci] = serve.EmptyDigest
		for k, gi := range chunk {
			tuples[ci][k] = cli.FormatArch(grid[gi])
			digests[ci] = digests[ci].Add(grid[gi])
		}
	}

	units := make([]*unit, 0, len(benches)*len(chunks))
	for _, b := range benches {
		for ci, chunk := range chunks {
			units = append(units, &unit{
				id:       len(units),
				bench:    b.Name,
				indices:  chunk,
				tuples:   tuples[ci],
				digest:   digests[ci],
				attempts: map[int]*attempt{},
			})
		}
	}
	return units
}

// chunkClasses packs whole classes into k chunks of near-equal total
// arch count, preserving class order. Deterministic: the same grid
// always shards the same way. k must be ≤ len(classes).
func chunkClasses(classes [][]int, k, total int) [][]int {
	chunks := make([][]int, 0, k)
	remaining := total
	ci := 0
	for c := 0; c < k; c++ {
		chunksLeft := k - c
		target := (remaining + chunksLeft - 1) / chunksLeft
		var chunk []int
		for ci < len(classes) {
			if c == k-1 {
				// Last chunk takes everything left.
				chunk = append(chunk, classes[ci]...)
				ci++
				continue
			}
			classesLeft := len(classes) - ci
			// Leave at least one class for each later chunk, and stop
			// once this chunk has reached its share.
			if len(chunk) > 0 && (classesLeft <= chunksLeft-1 || len(chunk)+len(classes[ci]) > target) {
				break
			}
			chunk = append(chunk, classes[ci]...)
			ci++
		}
		remaining -= len(chunk)
		chunks = append(chunks, chunk)
	}
	return chunks
}
