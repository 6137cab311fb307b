package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"customfit/internal/bench"
	"customfit/internal/cli"
	"customfit/internal/core"
	"customfit/internal/dse"
	"customfit/internal/machine"
	"customfit/internal/obs"
)

// maxSubmitBytes bounds a job submit's body: a handful of fields, at
// most a kernel's CKC source or an explicit grid (the full op-crossed
// space is ~1500 tuples of ~30 bytes). The cache endpoints bound their
// own bodies (fleetcache.Handler).
const maxSubmitBytes = 1 << 20

// decodeJSON reads a submit body of at most maxSubmitBytes into v
// (empty body = zero value, so defaultable requests need no payload).
// On failure it answers the request itself — 413 for an oversized body,
// 400 for a malformed one — and returns false.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes)).Decode(v)
	if err == nil || errors.Is(err, io.EOF) {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeErr(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", maxSubmitBytes))
		return false
	}
	writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
	return false
}

// resolveBenches maps names to benchmarks; empty means the full suite.
// A name given twice is refused, as the explorer refuses it.
func resolveBenches(names []string) ([]*bench.Benchmark, error) {
	if len(names) == 0 {
		return bench.All(), nil
	}
	out := make([]*bench.Benchmark, 0, len(names))
	for _, n := range names {
		b := bench.ByName(n)
		if b == nil {
			return nil, fmt.Errorf("unknown benchmark %q (have %v)", n, bench.Names())
		}
		out = append(out, b)
	}
	return out, dse.DistinctBenchmarks(out)
}

// CompileRequest asks for one kernel × architecture compilation.
// Exactly one of Bench (a built-in benchmark tag) or Source (CKC text)
// selects the kernel.
type CompileRequest struct {
	Bench  string `json:"bench,omitempty"`
	Source string `json:"source,omitempty"`
	// Arch is the paper's positional tuple "a m r p2 l2 c".
	Arch   string `json:"arch"`
	Unroll int    `json:"unroll,omitempty"` // default 1
}

// CompileResult is a compile job's payload.
type CompileResult struct {
	Kernel    string  `json:"kernel"`
	Arch      string  `json:"arch"`
	Unroll    int     `json:"unroll"`
	Bundles   int     `json:"bundles"`
	Ops       int     `json:"ops"`
	StaticIPC float64 `json:"static_ipc"`
	Spilled   int     `json:"spilled"`
	Cost      float64 `json:"cost"`
	Derate    float64 `json:"derate"`
	Assembly  string  `json:"assembly"`
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req CompileRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	src := req.Source
	if req.Bench != "" {
		b := bench.ByName(req.Bench)
		if b == nil {
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("unknown benchmark %q", req.Bench))
			return
		}
		src = b.Source
	}
	if src == "" {
		writeErr(w, http.StatusBadRequest, "one of bench or source is required")
		return
	}
	arch, err := cli.ParseArch(req.Arch)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Source != "" {
		// A source that does not compile is the request's fault, like a
		// malformed arch: refused here with its diagnostic rather than
		// queued as a job that can only fail. The job compiles it again,
		// under its own span.
		if _, err := core.ParseKernel(src); err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	if req.Unroll <= 0 {
		req.Unroll = 1
	}
	key := coalesceKey("compile", struct {
		Src    string
		Arch   machine.Arch
		Unroll int
	}{src, arch, req.Unroll})
	s.respondSubmit(w, remoteContext(r), "compile", key, func(ctx context.Context, _ *Job) (json.RawMessage, error) {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w: %w", dse.ErrCancelled, context.Cause(ctx))
		}
		k, err := core.ParseKernelCtx(ctx, src)
		if err != nil {
			return nil, err
		}
		c, err := k.CompileCtx(ctx, arch, req.Unroll)
		if err != nil {
			return nil, err
		}
		return json.Marshal(CompileResult{
			Kernel:    k.Name,
			Arch:      arch.String(),
			Unroll:    req.Unroll,
			Bundles:   c.Prog.BundleCount(),
			Ops:       c.Prog.OpCount(),
			StaticIPC: c.Prog.IPC(),
			Spilled:   c.Spilled,
			Cost:      machine.DefaultCostModel.Cost(arch),
			Derate:    machine.DefaultCycleModel.Derate(arch),
			Assembly:  c.Assembly(),
		})
	})
}

// SimulateRequest asks for a cycle-accurate run of a built-in benchmark
// against its generated workload, verified against the golden model.
type SimulateRequest struct {
	Bench  string `json:"bench"`
	Arch   string `json:"arch"`
	Unroll int    `json:"unroll,omitempty"` // default 1
	Width  int    `json:"width,omitempty"`  // default 96, at most maxWidth
	Seed   int64  `json:"seed,omitempty"`   // default 1
}

// maxWidth bounds the workload width of a simulate, explore or fit
// request, which a worker checks at submit: a benchmark case allocates
// arrays in proportion to it (bench.Benchmark.NewCase) and simulated
// cycles grow with it, so one request must not exhaust a worker's
// memory or hold it for minutes.
const maxWidth = 4096

// checkWidth refuses a width above maxWidth.
func checkWidth(width int) error {
	if width > maxWidth {
		return fmt.Errorf("width %d exceeds %d", width, maxWidth)
	}
	return nil
}

// SimulateResult is a simulate job's payload.
type SimulateResult struct {
	Bench       string  `json:"bench"`
	Arch        string  `json:"arch"`
	Cycles      int64   `json:"cycles"`
	Time        float64 `json:"time"`
	Ops         int64   `json:"ops"`
	IPC         float64 `json:"ipc"`
	MemAccesses int64   `json:"mem_accesses"`
	StallCycles int64   `json:"stall_cycles"`
	Bound       string  `json:"bound"`
	Spilled     int     `json:"spilled"`
	Cost        float64 `json:"cost"`
	Verified    bool    `json:"verified"`
	Mismatches  int     `json:"mismatches"`
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	b := bench.ByName(req.Bench)
	if b == nil {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("unknown benchmark %q (have %v)", req.Bench, bench.Names()))
		return
	}
	arch, err := cli.ParseArch(req.Arch)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Unroll <= 0 {
		req.Unroll = 1
	}
	if req.Width <= 0 {
		req.Width = 96
	}
	if err := checkWidth(req.Width); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	key := coalesceKey("simulate", req)
	s.respondSubmit(w, remoteContext(r), "simulate", key, func(ctx context.Context, _ *Job) (json.RawMessage, error) {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w: %w", dse.ErrCancelled, context.Cause(ctx))
		}
		k, err := core.ParseKernelCtx(ctx, b.Source)
		if err != nil {
			return nil, err
		}
		c, err := k.CompileCtx(ctx, arch, req.Unroll)
		if err != nil {
			return nil, err
		}
		cse := b.NewCase(req.Width, req.Seed)
		run := cse.Clone()
		st, err := c.RunCtx(ctx, run.Args, run.Mem)
		if err != nil {
			return nil, err
		}
		mismatches := 0
		golden := cse.Golden()
		for _, name := range cse.Outputs {
			want, got := golden[name], run.Mem[name]
			for i := range want {
				if want[i] != got[i] {
					mismatches++
				}
			}
		}
		return json.Marshal(SimulateResult{
			Bench:       b.Name,
			Arch:        arch.String(),
			Cycles:      st.Cycles,
			Time:        st.Time,
			Ops:         st.Ops,
			IPC:         st.IPC,
			MemAccesses: st.MemAccesses,
			StallCycles: st.StallCycles,
			Bound:       st.Bound,
			Spilled:     c.Spilled,
			Cost:        machine.DefaultCostModel.Cost(arch),
			Verified:    mismatches == 0,
			Mismatches:  mismatches,
		})
	})
}

// SchemaVersion is the newest explore-request schema this server
// understands. Schema 1 (implicit: the zero Schema field) is the
// 6-tuple era; schema 2 adds the custom-op fields (Ops, op-enabled
// arch tuples). Requests declaring a newer schema than the server
// supports are refused with 409 Conflict rather than silently
// misinterpreted — an op-aware coordinator must never have its op
// grids quietly evaluated op-free by an op-unaware worker.
const SchemaVersion = 2

// ExploreRequest asks for a design-space exploration. The zero value is
// the paper's full Table-3 run (full space × full suite, width 96).
type ExploreRequest struct {
	// Benchmarks restricts the suite (empty = all).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Sample > 1 keeps every Nth machine of the space.
	Sample int `json:"sample,omitempty"`
	// Width is the reference workload width (default 96, at most
	// maxWidth).
	Width int `json:"width,omitempty"`
	// Archs, when non-empty, explores exactly these architectures
	// (positional tuples "a m r p2 l2 c") instead of the sampled full
	// space; Sample must then be unset. The baseline machine is NOT
	// appended implicitly — shard dispatch needs exact grids. A priced
	// job still measures speedups against it (evaluated out of grid
	// when absent, accounted in Stats.BaselineRuns); an Unpriced one
	// evaluates no baseline. This is the wire form the distributed
	// coordinator (internal/dist) uses to farm shards out to workers.
	// With a custom-op catalog (Ops) the tuples may carry an
	// " ops=<hexmask>" suffix (cli.ParseArchOps).
	Archs []string `json:"archs,omitempty"`
	// Unpriced asks for the measurements alone (core.Measure): the
	// result is the same document with "cost":null and every Time and
	// Speedup 0, and no out-of-grid baseline is evaluated. The
	// distributed coordinator sends it with every shard, because its
	// merge prices the whole grid itself. Part of the coalesce key: a
	// priced and an unpriced job never share work.
	Unpriced bool `json:"unpriced,omitempty"`
	// Schema declares the request schema the sender speaks (see
	// SchemaVersion). Zero means 1, the 6-tuple era; senders set it only
	// when they use newer fields, keeping classic requests byte-identical
	// on the wire.
	Schema int `json:"schema,omitempty"`
	// Ops is the shared custom-op catalog (codec texts, see
	// ir.ParseFusedSpec) that the arch tuples' " ops=" masks index into.
	// Requires Schema >= 2. Part of the coalesce key: requests differing
	// only in Ops are different work and never share a job.
	Ops []string `json:"ops,omitempty"`
	// Cache, when "off", runs this job without the server's shared
	// evaluation cache — the distributed coordinator propagates its
	// operator's -cache=off fleet-wide with it. Excluded from
	// coalescing: results are bit-identical with or without the cache
	// (pinned by the golden cold/warm server tests), only the work
	// performed differs.
	Cache string `json:"cache,omitempty"`
}

// exploreBody is an ExploreRequest as the handler reads it: the same
// members, but the archs list held as its text (cli.ArchList), which
// encoding/json prefers to the embedded []string because it is
// shallower.
type exploreBody struct {
	ExploreRequest
	Archs cli.ArchList `json:"archs,omitempty"`
}

// exploreJob is an explore request checked and parsed: what the job runs
// and the key it coalesces under.
type exploreJob struct {
	benches       []*bench.Benchmark
	archs         []machine.Arch
	opSet         *machine.OpSet
	sample, width int
	unpriced      bool
	key           string
}

// resolve checks the request and parses what it names, or says why not
// with the status to answer.
func (req *exploreBody) resolve() (*exploreJob, int, error) {
	benches, err := resolveBenches(req.Benchmarks)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if req.Schema > SchemaVersion {
		// 409, not 400: the request is well-formed, this worker is just
		// too old to honor it — the coordinator should find another.
		return nil, http.StatusConflict, fmt.Errorf(
			"request schema %d exceeds supported %d (op-aware request on an op-unaware worker?)",
			req.Schema, SchemaVersion)
	}
	if len(req.Ops) > 0 && req.Schema < 2 {
		return nil, http.StatusBadRequest, errors.New("ops requires schema >= 2")
	}
	if req.Archs.Len() > 0 && req.Sample > 1 {
		return nil, http.StatusBadRequest, errors.New("archs and sample are mutually exclusive")
	}
	x := &exploreJob{benches: benches, sample: max(req.Sample, 1), width: req.Width, unpriced: req.Unpriced}
	if x.width <= 0 {
		x.width = 96
	}
	if err := checkWidth(x.width); err != nil {
		return nil, http.StatusBadRequest, err
	}
	if len(req.Ops) > 0 {
		if x.opSet, err = machine.ParseOpCatalog(req.Ops); err != nil {
			return nil, http.StatusBadRequest, err
		}
	}
	archs, fallbacks, err := req.Archs.Archs(x.opSet)
	if fallbacks > 0 {
		obs.GetCounter("serve.tuple_fallbacks").Add(int64(fallbacks))
	}
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	x.archs = archs
	x.key = exploreKey(x, req.Ops)
	return x, 0, nil
}

// exploreKey spells exactly the result-affecting fields of x, and ops
// (the catalog as sent), unambiguously: whether the job prices as one
// byte, counts and numbers as varints, strings behind their length, the
// machines last. Worker counts, caching and trace identity are left out
// because the pipeline is deterministic regardless of them.
func exploreKey(x *exploreJob, ops []string) string {
	key := make([]byte, 0, 64+10*len(x.archs))
	key = append(key, "explore:"...)
	priced := byte(1)
	if x.unpriced {
		priced = 0
	}
	key = append(key, priced)
	key = binary.AppendUvarint(key, uint64(len(x.benches)))
	for _, b := range x.benches {
		key = append(binary.AppendUvarint(key, uint64(len(b.Name))), b.Name...)
	}
	key = binary.AppendUvarint(key, uint64(x.sample))
	key = binary.AppendUvarint(key, uint64(x.width))
	key = binary.AppendUvarint(key, uint64(len(ops)))
	for _, op := range ops {
		key = append(binary.AppendUvarint(key, uint64(len(op))), op...)
	}
	for _, a := range x.archs {
		for _, v := range [...]int{a.ALUs, a.MULs, a.Regs, a.L2Ports, a.L2Lat, a.Clusters} {
			key = binary.AppendUvarint(key, uint64(v))
		}
		key = binary.AppendUvarint(key, a.Ops.Mask)
	}
	return string(key)
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	var req exploreBody
	if !decodeJSON(w, r, &req) {
		return
	}
	x, code, err := req.resolve()
	if err != nil {
		writeErr(w, code, err.Error())
		return
	}
	cache := s.opts.Cache
	if req.Cache == "off" {
		cache = nil
	}
	explore := core.Explore
	if x.unpriced {
		explore = core.Measure
	}
	s.respondSubmit(w, remoteContext(r), "explore", x.key, func(ctx context.Context, j *Job) (json.RawMessage, error) {
		res, err := explore(ctx, core.ExploreOptions{
			Benchmarks:  x.benches,
			Archs:       x.archs,
			ExactArchs:  len(x.archs) > 0,
			Ops:         x.opSet,
			Sample:      x.sample,
			Width:       x.width,
			Parallelism: s.opts.EvalParallelism,
			Cache:       cache,
			Progress:    j.setProgress,
		})
		if err != nil {
			return nil, err
		}
		// The result is the exact schema dse.Save persists, so a client
		// can feed it straight back to cfp-explore -load.
		return res.JSON()
	})
}

// FitRequest asks for the paper's custom-fit loop: explore, then select
// the best architecture for the benchmarks under the cost cap.
type FitRequest struct {
	Benchmarks []string `json:"benchmarks,omitempty"` // empty = full suite
	CostCap    float64  `json:"cost_cap"`
	// Range > 0 backs off pure specialization: among feasible machines
	// within Range of the best mean speedup, pick the cheapest.
	Range  float64 `json:"range,omitempty"`
	Sample int     `json:"sample,omitempty"`
	Width  int     `json:"width,omitempty"` // default 96, at most maxWidth
	// Cache "off" bypasses the server's shared evaluation cache (see
	// ExploreRequest.Cache). Excluded from coalescing: result-neutral.
	Cache string `json:"cache,omitempty"`
}

// FitResultJSON is a fit job's payload.
type FitResultJSON struct {
	Best     string             `json:"best"`
	Cost     float64            `json:"cost"`
	Speedups map[string]float64 `json:"speedups"`
}

func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) {
	var req FitRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	benches, err := resolveBenches(req.Benchmarks)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.CostCap <= 0 {
		writeErr(w, http.StatusBadRequest, "cost_cap must be positive")
		return
	}
	if req.Sample < 1 {
		req.Sample = 1
	}
	if req.Width <= 0 {
		req.Width = 96
	}
	if err := checkWidth(req.Width); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	keyReq := req
	keyReq.Cache = ""
	key := coalesceKey("fit", keyReq)
	cache := s.opts.Cache
	if req.Cache == "off" {
		cache = nil
	}
	s.respondSubmit(w, remoteContext(r), "fit", key, func(ctx context.Context, j *Job) (json.RawMessage, error) {
		fit, err := core.CustomFitCtx(ctx, core.FitOptions{
			Benchmarks:  benches,
			CostCap:     req.CostCap,
			Range:       req.Range,
			Sample:      req.Sample,
			Width:       req.Width,
			Parallelism: s.opts.EvalParallelism,
			Cache:       cache,
			Progress:    j.setProgress,
		})
		if err != nil {
			return nil, err
		}
		return json.Marshal(FitResultJSON{
			Best:     fit.Best.String(),
			Cost:     fit.Cost,
			Speedups: fit.Speedups,
		})
	})
}

// coalesceKey canonically encodes a request's result-affecting fields.
func coalesceKey(kind string, v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		// Unencodable requests simply never coalesce.
		return ""
	}
	return kind + ":" + string(data)
}
