package dist

import (
	"fmt"
	"slices"

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
func partitionUnits(grid []machine.Arch, slots int) []*unit {
	classes := dse.SignatureClasses(grid)
	k := min(slots, len(classes))
	units := make([]*unit, k)
	for i := range units {
		units[i] = &unit{id: i, attempts: map[int]*attempt{}}
	}
	for ci, class := range classes {
		u := units[ci%k]
		u.indices = append(u.indices, class...)
	}
	for _, u := range units {
		slices.Sort(u.indices)
		u.tuples = make([]string, len(u.indices))
		u.digest = serve.EmptyDigest
		for j, gi := range u.indices {
			u.tuples[j] = cli.FormatArch(grid[gi])
			u.digest = u.digest.Add(grid[gi])
		}
	}
	return units
}
