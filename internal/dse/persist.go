package dse

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"customfit/internal/machine"
)

// resultsJSON is the serialized form of Results (Stats durations encode
// as nanoseconds via time.Duration's integer representation). The
// schema only grows: files saved before Stats gained Failures and the
// per-phase time breakdown (Phases) still load, with those fields
// zero-valued.
//
// JSON writes the document with json.Marshal and FromJSON reads it
// with json.Unmarshal: there is no other encoder or decoder, so a
// document with whitespace, reordered or unknown members reads as the
// one JSON wrote.
type resultsJSON struct {
	Archs   []archJSON              `json:"archs"`
	Benches []string                `json:"benches"`
	Cost    []float64               `json:"cost"`
	Eval    map[string][]Evaluation `json:"eval"`
	Stats   Stats                   `json:"stats"`
	// Ops is the shared custom-op catalog (codec texts, see
	// ir.ParseFusedSpec) when the explored grid carried an op axis.
	// Absent for op-free runs, keeping their files byte-identical to the
	// 6-tuple era.
	Ops []string `json:"ops,omitempty"`
}

type archJSON struct {
	A, M, R, P2, L2, C int
	// Ops is the architecture's enable mask over the results' shared
	// catalog, in hex; omitted for op-free architectures.
	Ops string `json:"ops,omitempty"`
}

// JSON encodes the results in the persisted schema (the same bytes
// Save writes). It is the wire format of cfp-serve's explore jobs, so
// a server-side exploration round-trips through FromJSON into the
// exact Results a local run would have produced.
func (r *Results) JSON() ([]byte, error) {
	out := resultsJSON{
		Benches: r.Benches,
		Cost:    r.Cost,
		Eval:    r.Eval,
		Stats:   r.Stats,
	}
	if len(r.Archs) > 0 {
		out.Archs = make([]archJSON, 0, len(r.Archs))
	}
	var set *machine.OpSet
	for _, a := range r.Archs {
		if a.MinMax {
			return nil, fmt.Errorf("dse: encode results: architecture %v has the min/max repertoire, which the document cannot record", a)
		}
		aj := archJSON{A: a.ALUs, M: a.MULs, R: a.Regs, P2: a.L2Ports, L2: a.L2Lat, C: a.Clusters}
		if !a.Ops.Empty() {
			switch {
			case set == nil:
				set = a.Ops.Set
				out.Ops = set.Wire()
			case set != a.Ops.Set:
				return nil, fmt.Errorf("dse: encode results: architectures draw from different op catalogs")
			}
			aj.Ops = strconv.FormatUint(a.Ops.Mask, 16)
		}
		out.Archs = append(out.Archs, aj)
	}
	data, err := json.Marshal(out)
	if err != nil {
		return nil, fmt.Errorf("dse: encode results: %w", err)
	}
	return data, nil
}

// FromJSON decodes results encoded by JSON (or saved by Save).
func FromJSON(data []byte) (*Results, error) {
	var in resultsJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("dse: decode results: %w", err)
	}
	return in.results()
}

// results builds the Results in describes.
func (in *resultsJSON) results() (*Results, error) {
	r := &Results{
		Benches: in.Benches,
		Cost:    in.Cost,
		Eval:    in.Eval,
		Stats:   in.Stats,
	}
	var set *machine.OpSet
	if len(in.Ops) > 0 {
		s, err := machine.ParseOpCatalog(in.Ops)
		if err != nil {
			return nil, fmt.Errorf("dse: decode results: %w", err)
		}
		set = s
	}
	if len(in.Archs) > 0 {
		r.Archs = make([]machine.Arch, 0, len(in.Archs))
	}
	for _, a := range in.Archs {
		arch := machine.Arch{
			ALUs: a.A, MULs: a.M, Regs: a.R, L2Ports: a.P2, L2Lat: a.L2, Clusters: a.C,
		}
		if a.Ops != "" {
			if set == nil {
				return nil, fmt.Errorf("dse: decode results: arch op mask %q without a catalog", a.Ops)
			}
			mask, err := strconv.ParseUint(a.Ops, 16, 64)
			if err != nil {
				return nil, fmt.Errorf("dse: decode results: bad op mask %q: %w", a.Ops, err)
			}
			arch = arch.WithOps(set, mask)
			if err := arch.Validate(); err != nil {
				return nil, fmt.Errorf("dse: decode results: %w", err)
			}
		}
		r.Archs = append(r.Archs, arch)
	}
	return r, nil
}

// Save writes the results to path as JSON.
func (r *Results) Save(path string) error {
	data, err := r.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads results saved by Save.
func Load(path string) (*Results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := FromJSON(data)
	if err != nil {
		return nil, fmt.Errorf("dse: %s: %w", path, err)
	}
	return r, nil
}
