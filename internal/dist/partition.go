package dist

import (
	"fmt"
	"slices"
	"strings"

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

// unit is one shard of the (benchmark × architecture) grid: every
// benchmark of the run against a chunk of the grid built from whole
// backend signature classes. indices are positions in the
// coordinator's grid, ascending; tuples is the parallel wire form and
// digest the digest of those machines. Chunks partition the classes,
// so no two units share a machine: every unit is its own work.
type unit struct {
	id      int
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

// partitionUnits shards the exploration into one unit per fleet slot.
// Archs are grouped by backend signature class (dse.SignatureClasses)
// and the classes, in first-seen grid order, are dealt round-robin
// into min(slots, #classes) chunks, so every shard reproduces exactly
// the per-class memoization a local run would have had for its cells:
// one physical sweep per (benchmark, class), every member arch charged
// the class sweep's logical runs. Dealing rather than cutting the
// class list into runs spreads the leading parameters of the grid's
// order, whose runs differ systematically in cost, over every chunk.
// Each unit carries every benchmark, so each machine is formatted,
// digested and sent once. Deterministic: the same grid and slots
// always shard the same way.
//
// The units' indices share one array, and their tuples are rendered
// into one buffer and cut out of one string, so partitioning makes the
// same few objects a unit whatever the size of the grid.
func partitionUnits(grid []machine.Arch, slots int) []*unit {
	classes := dse.SignatureClasses(grid)
	k := min(slots, len(classes))
	units := make([]*unit, k)
	indices := make([]int, 0, len(grid))
	buf := make([]byte, 0, len(grid)*tupleBytes)
	for i := range units {
		u := &unit{id: i, attempts: map[int]*attempt{}, digest: serve.EmptyDigest}
		at := len(indices)
		for ci := i; ci < len(classes); ci += k {
			indices = append(indices, classes[ci]...)
		}
		u.indices = indices[at:len(indices):len(indices)]
		slices.Sort(u.indices)
		for _, gi := range u.indices {
			buf = append(cli.AppendArch(buf, grid[gi]), '\n')
			u.digest = u.digest.Add(grid[gi])
		}
		units[i] = u
	}
	text, tuples := string(buf), make([]string, len(indices))
	for _, u := range units {
		u.tuples, tuples = tuples[:len(u.indices):len(u.indices)], tuples[len(u.indices):]
		for j := range u.tuples {
			end := strings.IndexByte(text, '\n')
			u.tuples[j], text = text[:end], text[end+1:]
		}
	}
	return units
}

// tupleBytes is room for an op-free tuple of the full space and the
// newline after it; a longer one grows the buffer on its own.
const tupleBytes = 20
