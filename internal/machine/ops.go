package machine

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"customfit/internal/ir"
)

// MaxFusedIn bounds a custom op's external operand count: the custom
// unit's register-file read ports (and the fused instruction word's
// operand fields) are wired for at most this many inputs. Matches the
// classic 4-input custom-instruction constraint of the ByoRISC /
// ISA-extension literature the miner follows.
const MaxFusedIn = 4

// MaxOpSetSize bounds how many custom ops one architecture may enable:
// OpConfig.Mask is a uint64, and the design space must stay enumerable.
const MaxOpSetSize = 16

// OpSet is an immutable, interned catalog of custom-op specs in
// canonical order (lexicographic by spec key). Equal content yields the
// identical *OpSet pointer — NewOpSet interns by content — so Arch
// stays a comparable value type (usable as a map key and with ==) even
// with an op-set axis: OpConfig carries the *OpSet plus an enable mask,
// and two configs built from the same catalog content compare equal
// regardless of where (or from which wire message) they were parsed.
type OpSet struct {
	key   string
	specs []*ir.FusedSpec
}

// opSetIntern is the process-global content-interning registry.
var (
	opSetMu     sync.Mutex
	opSetIntern = map[string]*OpSet{}
)

// NewOpSet builds (or returns the interned) op set holding the given
// specs. Specs are validated, deduplicated by content key, and sorted
// canonically; the input slice is not retained.
func NewOpSet(specs []*ir.FusedSpec) (*OpSet, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("machine: empty op set")
	}
	byKey := make(map[string]*ir.FusedSpec, len(specs))
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if s.NIn > MaxFusedIn {
			return nil, fmt.Errorf("machine: fused %q has %d inputs, custom unit wires at most %d", s.Name, s.NIn, MaxFusedIn)
		}
		if prev, dup := byKey[s.Key()]; !dup || prev.Name > s.Name {
			byKey[s.Key()] = s // dedup by dataflow; keep the lexically first name
		}
	}
	if len(byKey) > MaxOpSetSize {
		return nil, fmt.Errorf("machine: op set has %d distinct ops, max %d", len(byKey), MaxOpSetSize)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	canon := make([]*ir.FusedSpec, len(keys))
	content := ""
	for i, k := range keys {
		canon[i] = byKey[k]
		if i > 0 {
			content += "|"
		}
		content += k
	}
	opSetMu.Lock()
	defer opSetMu.Unlock()
	if s, ok := opSetIntern[content]; ok {
		return s, nil
	}
	s := &OpSet{key: content, specs: canon}
	opSetIntern[content] = s
	return s, nil
}

// ParseOpCatalog builds an op set from codec texts ("mac/3/2: mul $0
// $1; add %0 $2" — see ir.ParseFusedSpec), the wire and file form.
func ParseOpCatalog(texts []string) (*OpSet, error) {
	specs := make([]*ir.FusedSpec, 0, len(texts))
	for _, t := range texts {
		s, err := ir.ParseFusedSpec(t)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return NewOpSet(specs)
}

// Len returns the number of ops in the catalog.
func (s *OpSet) Len() int {
	if s == nil {
		return 0
	}
	return len(s.specs)
}

// Spec returns the i-th spec in canonical order.
func (s *OpSet) Spec(i int) *ir.FusedSpec { return s.specs[i] }

// Key returns the catalog's canonical content key.
func (s *OpSet) Key() string {
	if s == nil {
		return ""
	}
	return s.key
}

// Wire renders the catalog as codec texts, the form ParseOpCatalog
// reads back (and ExploreRequest.Ops carries).
func (s *OpSet) Wire() []string {
	if s == nil {
		return nil
	}
	out := make([]string, len(s.specs))
	for i, sp := range s.specs {
		out[i] = sp.String()
	}
	return out
}

// FullMask enables every op in the catalog.
func (s *OpSet) FullMask() uint64 {
	if s == nil {
		return 0
	}
	return (uint64(1) << uint(len(s.specs))) - 1
}

// OpConfig is an architecture's custom-op configuration: which catalog
// it draws from and which of its ops are enabled. The zero value means
// "no custom ops" — the classic 6-tuple template. OpConfig is
// comparable (OpSets are content-interned), so Arch remains usable as a
// map key and with ==.
type OpConfig struct {
	Set  *OpSet
	Mask uint64
}

// Empty reports whether no custom op is enabled.
func (c OpConfig) Empty() bool { return c.Set == nil || c.Mask&c.Set.FullMask() == 0 }

// IsZero lets encoding/json's omitzero drop the field for op-free
// architectures, keeping their JSON byte-identical to the 6-tuple era.
func (c OpConfig) IsZero() bool { return c.Empty() }

// Count returns the number of enabled ops.
func (c OpConfig) Count() int {
	n := 0
	for i := 0; i < c.Set.Len(); i++ {
		if c.Mask&(1<<uint(i)) != 0 {
			n++
		}
	}
	return n
}

// Enabled returns the enabled specs in canonical order.
func (c OpConfig) Enabled() []*ir.FusedSpec {
	if c.Empty() {
		return nil
	}
	out := make([]*ir.FusedSpec, 0, c.Count())
	for i := 0; i < c.Set.Len(); i++ {
		if c.Mask&(1<<uint(i)) != 0 {
			out = append(out, c.Set.Spec(i))
		}
	}
	return out
}

// Key returns the stable content key of the enabled ops ("" when
// empty): the op component of backend signatures, cache keys and wire
// tuples. Only enabled ops contribute — two configs enabling the same
// ops out of different catalogs are the same architecture.
func (c OpConfig) Key() string { return string(c.AppendKey(nil)) }

// AppendKey appends the config's Key to b: the enabled specs' keys,
// '|' between them. It allocates nothing when b has room for them.
func (c OpConfig) AppendKey(b []byte) []byte {
	if c.Empty() {
		return b
	}
	first := true
	for i := 0; i < c.Set.Len(); i++ {
		if c.Mask&(1<<uint(i)) != 0 {
			if !first {
				b = append(b, '|')
			}
			first = false
			b = c.Set.Spec(i).AppendKey(b)
		}
	}
	return b
}

// Validate checks the mask against the catalog.
func (c OpConfig) Validate() error {
	if c.Set == nil {
		if c.Mask != 0 {
			return fmt.Errorf("machine: op mask %#x without a catalog", c.Mask)
		}
		return nil
	}
	if c.Mask&^c.Set.FullMask() != 0 {
		return fmt.Errorf("machine: op mask %#x exceeds catalog of %d ops", c.Mask, c.Set.Len())
	}
	return nil
}

// MaxIn returns the widest enabled op's operand count (0 when empty):
// the custom unit's register-read wiring, which the derate model reads
// through Arch.RegPorts.
func (c OpConfig) MaxIn() int {
	m := 0
	for _, s := range c.Enabled() {
		if s.NIn > m {
			m = s.NIn
		}
	}
	return m
}

// opConfigJSON is the wire form: the catalog as codec texts plus the
// enable mask in hex.
type opConfigJSON struct {
	Catalog []string `json:"catalog"`
	Mask    string   `json:"mask"`
}

// MarshalJSON encodes the config; the zero config encodes as null (and
// is normally omitted entirely via omitzero).
func (c OpConfig) MarshalJSON() ([]byte, error) {
	if c.Empty() {
		return []byte("null"), nil
	}
	return json.Marshal(opConfigJSON{Catalog: c.Set.Wire(), Mask: strconv.FormatUint(c.Mask, 16)})
}

// UnmarshalJSON decodes and re-interns the config, so a JSON round trip
// within one process yields a pointer-equal Set (and hence an Arch that
// compares == to the original).
func (c *OpConfig) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*c = OpConfig{}
		return nil
	}
	var w opConfigJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	set, err := ParseOpCatalog(w.Catalog)
	if err != nil {
		return err
	}
	mask, err := strconv.ParseUint(w.Mask, 16, 64)
	if err != nil {
		return fmt.Errorf("machine: bad op mask %q: %w", w.Mask, err)
	}
	cfg := OpConfig{Set: set, Mask: mask}
	if err := cfg.Validate(); err != nil {
		return err
	}
	*c = cfg
	return nil
}

// WithOps returns a copy of the architecture drawing from the given
// catalog with the given enable mask.
func (a Arch) WithOps(set *OpSet, mask uint64) Arch {
	a.Ops = OpConfig{Set: set, Mask: mask}
	if mask == 0 {
		a.Ops = OpConfig{}
	}
	return a
}

// CrossOps crosses a grid of architectures with an op-set axis: for
// each input architecture it emits one point per mask (mask 0 = the
// unmodified 6-tuple point). This is how the explorer extends the
// paper's design space with the instruction-set dimension.
func CrossOps(archs []Arch, set *OpSet, masks []uint64) []Arch {
	if set == nil || len(masks) == 0 {
		return archs
	}
	out := make([]Arch, 0, len(archs)*len(masks))
	for _, a := range archs {
		for _, m := range masks {
			out = append(out, a.WithOps(set, m))
		}
	}
	return out
}

// DefaultMasks is the standard op-axis crossing: the op-free point plus
// everything enabled. Joint exploration with per-op granularity is the
// search strategies' job (they toggle single ops as neighbor moves);
// the exhaustive grid keeps the multiplier at 2.
func DefaultMasks(set *OpSet) []uint64 {
	if set == nil || set.Len() == 0 {
		return nil
	}
	return []uint64{0, set.FullMask()}
}
