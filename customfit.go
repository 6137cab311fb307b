// Package customfit reproduces "Custom-Fit Processors: Letting
// Applications Define Architectures" (Fisher, Faraboschi, Desoli;
// HP Laboratories Cambridge, MICRO-29, 1996) as a Go library: a
// retargetable clustered-VLIW compiler for a restricted C dialect, a
// cycle-accurate simulator, datapath cost and cycle-time models, the
// paper's image-processing benchmark suite, and the design-space
// exploration that "custom-fits" an architecture to an application.
//
// The root package is a thin facade; see the README for the package
// map and DESIGN.md for the system inventory.
//
// A minimal session:
//
//	k, _ := customfit.ParseKernel(src)          // CKC source
//	c, _ := k.Compile(customfit.Arch{ALUs: 8, MULs: 2, Regs: 256,
//	        L2Ports: 2, L2Lat: 4, Clusters: 2}, 4)
//	stats, _ := c.Run(args, mem)                // cycle-accurate run
//
// and the paper's headline flow:
//
//	fit, _ := customfit.FitContext(ctx, customfit.FitOptions{
//	        Benchmarks: []*customfit.Benchmark{customfit.BenchmarkByName("A")},
//	        CostCap:    10,
//	})
//	fmt.Println(fit.Best, fit.Speedups)
package customfit

import (
	"context"

	"customfit/internal/bench"
	"customfit/internal/core"
	"customfit/internal/dse"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/search"
)

// Sentinel errors. Every context-threaded entry point classifies its
// failures into one of these; test with errors.Is. ErrCancelled always
// also matches the underlying context.Canceled / DeadlineExceeded.
var (
	ErrCancelled  = core.ErrCancelled
	ErrInfeasible = core.ErrInfeasible
	ErrBadKernel  = core.ErrBadKernel
)

// Arch is an architecture in the paper's template: the 6-tuple
// (ALUs, MULs, Regs, L2Ports, L2Lat, Clusters), optionally extended
// with an enabled subset of a custom-op catalog (Arch.Ops).
type Arch = machine.Arch

// Baseline is the paper's reference machine (cost 1.0, derating 1.0).
var Baseline = machine.Baseline

// CustomOp is one fused-instruction candidate: a short dataflow of
// two-input ALU/MUL steps collapsed into a single multi-input
// operation (a MAC, an SAD step, a clip...). Parse one from its codec
// text with ParseCustomOp; mine them from kernels with MineOps.
type CustomOp = ir.FusedSpec

// OpSet is an immutable catalog of custom ops an exploration may draw
// from. Construct with NewOpSet or Template.Ops; architectures enable
// subsets of a catalog via Arch.WithOps.
type OpSet = machine.OpSet

// ParseCustomOp parses a custom op from its codec text, e.g.
//
//	mac/3/2: mul $0 $1; add %0 $2
//
// ($i = external input i, %i = result of step i, name/nin/lat header).
func ParseCustomOp(text string) (*CustomOp, error) { return ir.ParseFusedSpec(text) }

// NewOpSet interns a catalog of custom ops. Equal catalogs (same specs
// in the same order) return the identical *OpSet, so architectures
// drawing from them stay comparable with ==.
func NewOpSet(specs []*CustomOp) (*OpSet, error) { return machine.NewOpSet(specs) }

// Template is the extensible architecture template of the redesigned
// API: the paper's 6-tuple axes plus an optional custom-op catalog.
// The zero Template is exactly the paper's template.
type Template struct {
	// Ops, when non-nil, adds the op-set axis to the design space:
	// every 6-tuple point is crossed with the enable masks of
	// machine.DefaultMasks (none, all).
	Ops *OpSet
}

// Space enumerates the template's concrete design points. With a nil
// catalog it is exactly FullSpace.
func (t Template) Space() []Arch { return machine.Grid(nil, 1, t.Ops) }

// Kernel is a parsed CKC kernel; Compiled is a kernel scheduled for one
// concrete machine.
type (
	Kernel   = core.Kernel
	Compiled = core.Compiled
	RunStats = core.RunStats
)

// Benchmark is one kernel of the paper's suite (or a caller-defined
// workload in the same shape).
type Benchmark = bench.Benchmark

// FitResult is the outcome of a custom-fit search.
type FitResult = core.FitResult

// Results holds every measurement from one exploration (see
// internal/dse for the full API: Scatter, SelectConstrained, Save...).
type Results = dse.Results

// Evaluation is one (benchmark, architecture) measurement of a Results.
type Evaluation = dse.Evaluation

// ProgressInfo snapshots an in-flight exploration for progress
// reporting.
type ProgressInfo = dse.ProgressInfo

// SearchResult reports one search strategy's outcome.
type SearchResult = search.Result

// Options structs of the context-threaded entry points.
type (
	ExploreOptions = core.ExploreOptions
	FitOptions     = core.FitOptions
	SearchOptions  = core.SearchOptions
)

// ParseKernel compiles CKC source containing exactly one kernel.
func ParseKernel(src string) (*Kernel, error) { return core.ParseKernel(src) }

// BenchmarkByName returns a paper benchmark by its tag (A, C, D, E, F,
// G, H, GF, GEF, DH, DHEF), or nil.
func BenchmarkByName(name string) *Benchmark { return bench.ByName(name) }

// Benchmarks returns the paper's full suite.
func Benchmarks() []*Benchmark { return bench.All() }

// MineOps mines custom-op candidates from the benchmarks' kernel
// dataflow graphs on the reference workloads and returns the
// top-scoring catalog of at most n ops (a small default when n <= 0),
// or nil when no cluster qualifies. Feed the result to Template,
// ExploreOptions.Ops, or FitOptions.Ops.
func MineOps(benchmarks []*Benchmark, n int) (*OpSet, error) {
	return core.AutoOps(benchmarks, 0, n)
}

// DesignSpace enumerates the unclustered design points of the paper's
// search space; FullSpace adds every valid cluster arrangement.
func DesignSpace() []Arch { return machine.DesignSpace() }

// FullSpace returns every concrete machine the explorer evaluates.
func FullSpace() []Arch { return machine.FullSpace() }

// Cost returns an architecture's datapath cost relative to the
// baseline, under the model fit to the paper's Table 6.
func Cost(a Arch) float64 { return machine.DefaultCostModel.Cost(a) }

// CycleDerate returns the cycle-time derating factor relative to the
// baseline, under the model fit to the paper's Table 7.
func CycleDerate(a Arch) float64 { return machine.DefaultCycleModel.Derate(a) }

// Explore runs the paper's design-space exploration under ctx: every
// machine of the (optionally sampled) space against every requested
// benchmark. Cancelling ctx stops scheduling new evaluations
// immediately and returns an error wrapping ErrCancelled; results of a
// completed run are bit-identical whether or not a persistent cache
// (ExploreOptions.CacheDir) is used, warm or cold.
func Explore(ctx context.Context, opts ExploreOptions) (*Results, error) {
	return core.Explore(ctx, opts)
}

// FitContext is the paper's custom-fit loop under a context: explore,
// then select the best architecture for opts.Benchmarks within
// opts.CostCap (backed off by opts.Range toward cheaper machines when
// nonzero). Returns ErrInfeasible when nothing fits the cap and
// ErrCancelled when ctx ends first.
func FitContext(ctx context.Context, opts FitOptions) (*FitResult, error) {
	return core.CustomFitCtx(ctx, opts)
}

// Search compares design-space search strategies (exhaustive, hill
// climbing, annealing, genetic) at fitting opts.Benchmark under
// opts.CostCap, scoring each against the exhaustive optimum. The
// objective compiles and measures for real; cancelling ctx stops the
// in-flight strategy promptly with ErrCancelled.
func Search(ctx context.Context, opts SearchOptions) ([]SearchResult, error) {
	return core.SearchCompare(ctx, opts)
}
