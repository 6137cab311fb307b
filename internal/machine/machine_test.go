package machine

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBaselineIsUnitCost(t *testing.T) {
	if c := DefaultCostModel.Cost(Baseline); math.Abs(c-1) > 1e-12 {
		t.Errorf("baseline cost = %g, want 1", c)
	}
	if d := DefaultCycleModel.Derate(Baseline); math.Abs(d-1) > 1e-12 {
		t.Errorf("baseline derate = %g, want 1", d)
	}
}

func TestDerivedParameters(t *testing.T) {
	cases := []struct {
		a            Arch
		aluPC, regPC int
		ports        int
	}{
		{Baseline, 1, 64, 7},
		{arch6(8, 4, 256, 1, 8, 1), 8, 256, 28},
		{arch6(8, 4, 256, 1, 8, 2), 4, 128, 16},
		{arch6(8, 4, 256, 1, 8, 4), 2, 64, 10},
		{arch6(16, 8, 512, 1, 8, 8), 2, 64, 10},
		{arch6(16, 4, 128, 1, 4, 8), 2, 16, 10},
		{arch6(8, 2, 128, 4, 4, 2), 4, 64, 18}, // l_c = 1 + ceil(4/2) = 3
	}
	for _, c := range cases {
		if got := c.a.ALUsPC(); got != c.aluPC {
			t.Errorf("%v ALUsPC = %d, want %d", c.a, got, c.aluPC)
		}
		if got := c.a.RegsPC(); got != c.regPC {
			t.Errorf("%v RegsPC = %d, want %d", c.a, got, c.regPC)
		}
		if got := c.a.RegPorts(); got != c.ports {
			t.Errorf("%v RegPorts = %d, want %d", c.a, got, c.ports)
		}
	}
}

func TestValidateRejectsBadShapes(t *testing.T) {
	bad := []Arch{
		arch6(0, 1, 64, 1, 8, 1),    // no ALUs
		arch6(4, 5, 64, 1, 8, 1),    // more MULs than ALUs
		arch6(4, 2, 64, 5, 8, 1),    // too many L2 ports
		arch6(4, 2, 64, 1, 1, 1),    // L2 latency out of range
		arch6(4, 2, 64, 1, 8, 3),    // ALUs not divisible by clusters
		arch6(4, 2, 100, 1, 8, 8),   // regs not divisible by clusters
		arch6(4, 2, 64, 1, 8, 8),    // more clusters than ALUs
		arch6(32, 16, 512, 1, 8, 1), // too many ALUs
	}
	for _, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("Validate(%v) = nil, want error", a)
		}
	}
	if err := Baseline.Validate(); err != nil {
		t.Errorf("Validate(baseline) = %v", err)
	}
}

func TestCostModelAgainstPaperTable6(t *testing.T) {
	// The paper's table is internally inconsistent with its own formula
	// (see cost.go), so exact agreement is impossible; assert the
	// least-squares fit stays within 25% worst-case and 10% median.
	if e := MaxRelErrCost(DefaultCostModel); e > 0.25 {
		t.Errorf("worst-case Table 6 error = %.3f, want <= 0.25", e)
	}
	var errs []float64
	for _, pt := range Table6 {
		errs = append(errs, math.Abs(DefaultCostModel.Cost(pt.Arch)-pt.Cost)/pt.Cost)
	}
	if m := median(errs); m > 0.12 {
		t.Errorf("median Table 6 error = %.3f, want <= 0.12", m)
	}
}

func TestCycleModelAgainstPaperTable7(t *testing.T) {
	if e := MaxRelErrCycle(DefaultCycleModel); e > 0.08 {
		t.Errorf("worst-case Table 7 error = %.3f, want <= 0.08", e)
	}
}

func TestDefaultModelsMatchFreshFit(t *testing.T) {
	cm := FitCostModel()
	if math.Abs(cm.K2-DefaultCostModel.K2) > 0.002 ||
		math.Abs(cm.K4-DefaultCostModel.K4)/DefaultCostModel.K4 > 0.1 ||
		math.Abs(cm.K5-DefaultCostModel.K5)/DefaultCostModel.K5 > 0.1 {
		t.Errorf("fresh fit %+v drifted from baked-in defaults %+v", cm, DefaultCostModel)
	}
	cy := FitCycleModel()
	if math.Abs(cy.Gamma-DefaultCycleModel.Gamma)/DefaultCycleModel.Gamma > 0.05 {
		t.Errorf("fresh cycle fit %g drifted from default %g", cy.Gamma, DefaultCycleModel.Gamma)
	}
}

func TestCostMonotonicity(t *testing.T) {
	// Adding resources at fixed cluster count never reduces cost.
	grow := []func(Arch) Arch{
		func(a Arch) Arch { a.ALUs *= 2; a.MULs *= 2; return a },
		func(a Arch) Arch { a.Regs *= 2; return a },
		func(a Arch) Arch { a.MULs = a.ALUs; return a },
		func(a Arch) Arch { a.L2Ports *= 2; return a },
	}
	for _, base := range DesignSpace() {
		for i, g := range grow {
			bigger := g(base)
			if bigger.Validate() != nil {
				continue
			}
			if DefaultCostModel.Cost(bigger) < DefaultCostModel.Cost(base)-1e-9 {
				t.Errorf("grow[%d]: cost(%v)=%.2f < cost(%v)=%.2f", i,
					bigger, DefaultCostModel.Cost(bigger), base, DefaultCostModel.Cost(base))
			}
		}
	}
}

func TestClusteringReducesCostAndDerate(t *testing.T) {
	// Splitting a wide machine into clusters reduces both area and the
	// cycle-time penalty (the whole point of clustering, paper §3.1).
	wide := arch6(16, 8, 512, 1, 8, 1)
	for _, c := range []int{2, 4, 8} {
		split := wide.WithClusters(c)
		if DefaultCostModel.Cost(split) >= DefaultCostModel.Cost(wide) {
			t.Errorf("cost with %d clusters not cheaper", c)
		}
		if DefaultCycleModel.Derate(split) >= DefaultCycleModel.Derate(wide) {
			t.Errorf("derate with %d clusters not lower", c)
		}
	}
}

func TestDesignSpaceSize(t *testing.T) {
	sp := DesignSpace()
	// The paper searched 191 architectures; our reconstruction of its
	// published ranges yields this fixed superset (documented in
	// EXPERIMENTS.md). Pin the count so accidental changes are caught.
	if len(sp) != 234 {
		t.Errorf("design space = %d points, want 234", len(sp))
	}
	seen := map[Arch]bool{}
	for _, a := range sp {
		if err := a.Validate(); err != nil {
			t.Errorf("invalid point %v: %v", a, err)
		}
		if seen[a] {
			t.Errorf("duplicate point %v", a)
		}
		seen[a] = true
	}
	// The paper's pathological architecture must be present.
	if !seen[arch6(16, 4, 128, 1, 4, 1)] {
		t.Error("(16 4 128 1 4 .) missing from space")
	}
}

func TestFullSpaceClusterings(t *testing.T) {
	for _, a := range FullSpace() {
		if err := a.Validate(); err != nil {
			t.Errorf("invalid clustered point %v: %v", a, err)
		}
	}
	// Spot-check: 16-ALU 128-reg machines allow c ∈ {1,2,4,8} (16
	// clusters would leave 8 registers each, below the paper's floor).
	cs := ClusterArrangements(arch6(16, 4, 128, 1, 4, 1))
	want := []int{1, 2, 4, 8}
	if len(cs) != len(want) {
		t.Fatalf("arrangements = %v, want %v", cs, want)
	}
	for i := range want {
		if cs[i] != want[i] {
			t.Fatalf("arrangements = %v, want %v", cs, want)
		}
	}
}

func TestRegPortsProperty(t *testing.T) {
	// p = 3a + 2l per cluster, so ports grow with ALUs per cluster and
	// never go below the 1-ALU 2-path minimum of 7.
	f := func(ai, ci uint8) bool {
		alus := []int{1, 2, 4, 8, 16}[int(ai)%5]
		clusters := 1
		for _, c := range []int{1, 2, 4, 8, 16} {
			if c <= alus && alus%c == 0 && int(ci)%5 >= 0 {
				clusters = c
			}
			if c > int(ci) {
				break
			}
		}
		a := Arch{ALUs: alus, MULs: 1, Regs: 64 * alus, L2Ports: 1, L2Lat: 4, Clusters: clusters}
		return a.RegPorts() >= 7 && a.RegPorts() == 3*a.ALUsPC()+2*a.MemPathsPC()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := range s {
		for j := i + 1; j < len(s); j++ {
			if s[j] < s[i] {
				s[i], s[j] = s[j], s[i]
			}
		}
	}
	return s[len(s)/2]
}

func TestBusesCapped(t *testing.T) {
	if b := (arch6(16, 4, 512, 1, 4, 1)).Buses(); b != 0 {
		t.Errorf("single cluster buses = %d, want 0", b)
	}
	if b := (arch6(16, 4, 512, 1, 4, 2)).Buses(); b != 1 {
		t.Errorf("2-cluster buses = %d, want 1", b)
	}
	if b := (arch6(16, 4, 512, 1, 4, 8)).Buses(); b != MaxBuses {
		t.Errorf("8-cluster buses = %d, want %d (cap)", b, MaxBuses)
	}
}

func TestWithMinMax(t *testing.T) {
	a := Baseline.WithMinMax()
	if !a.MinMax || Baseline.MinMax {
		t.Error("WithMinMax must copy, not mutate")
	}
	if a.WithClusters(1) == Baseline {
		t.Error("MinMax lost through WithClusters")
	}
}

// TestOpConfigAppendKey: AppendKey writes Key's bytes behind whatever
// the buffer holds — the enabled specs' keys in catalog order, '|'
// between them, nothing for an empty config — and with room in the
// buffer it allocates nothing.
func TestOpConfigAppendKey(t *testing.T) {
	set, err := ParseOpCatalog([]string{
		"mac/3/2:mul $0 $1;add %0 $2",
		"add_add/3/1:add $0 $1;add %0 $2",
		"sub_add/3/1:sub $0 $1;add %0 $2",
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf [256]byte
	for mask := uint64(0); mask <= set.FullMask(); mask++ {
		c := OpConfig{Set: set, Mask: mask}
		want := ""
		for _, s := range c.Enabled() {
			if want != "" {
				want += "|"
			}
			want += s.Key()
		}
		if got := c.Key(); got != want {
			t.Errorf("mask %b: Key %q, want %q", mask, got, want)
		}
		if got := string(c.AppendKey(append(buf[:0], "x:"...))); got != "x:"+want {
			t.Errorf("mask %b: AppendKey behind x: gives %q, want %q", mask, got, "x:"+want)
		}
		if n := testing.AllocsPerRun(10, func() { c.AppendKey(buf[:0]) }); n != 0 {
			t.Errorf("mask %b: AppendKey into room makes %v objects", mask, n)
		}
	}
	for i := 0; i < set.Len(); i++ {
		if s := set.Spec(i); s.Name == "mac" && s.Key() != "3/2:mul $0 $1;add %0 $2" {
			t.Errorf("mac's key %q, want %q", s.Key(), "3/2:mul $0 $1;add %0 $2")
		}
	}
}
