// Package sim is the cycle-accurate simulator for scheduled VLIW
// programs. It executes bundles with real latency semantics — operands
// are read at issue, results commit after the producer's latency,
// stores become visible to the next cycle — and verifies global memory
// port occupancy across block boundaries. Running the same kernel
// through sim and through the plain IR interpreter and comparing memory
// images is the pipeline's end-to-end correctness oracle.
//
// A run decodes the program once into flat arrays and executes those
// without a map lookup or an allocation per cycle; Run and RunPhysical
// are that one engine under two register-to-slot mappings. The engine
// counts only block visits: what a run kept busy is Profile of the
// schedule and those visits.
package sim

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"
	"strconv"

	"customfit/internal/idle"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/obs"
	"customfit/internal/vliw"
)

// Stats reports a run. Every count is a visit-weighted static count:
// what one execution of each block issues and keeps busy, read off its
// schedule and the machine description, times the block's visits
// (Profile). The *Busy fields tally issue slots and port-cycles, the
// *Occ fields normalize them to fractions of the slot- or port-cycles
// the machine holds (machine.Capacity), and Bound names the resource
// with the highest occupancy — the best single answer to "what bounded
// this run". Capacity depends only on the backend signature, so every
// machine of a signature class reads the same Stats for one schedule.
type Stats struct {
	Cycles      int64
	Ops         int64
	Bundles     int64
	BlockVisits map[string]int64
	MemAccesses int64

	// ALUBusy counts issued operations occupying an ALU slot (ALU ops,
	// multiplies, and the source slot of inter-cluster moves).
	ALUBusy int64
	// MULBusy counts issued multiplies (each also occupies an ALU slot).
	MULBusy int64
	// L1Busy / L2Busy count port-cycles reserved on each memory level
	// (an L2 access holds a port for the architecture's L2 latency).
	L1Busy, L2Busy int64
	// CUBusy counts issued custom (fused) operations on the per-cluster
	// custom-op units; zero on op-free architectures.
	CUBusy int64
	// StallCycles counts executed cycles that issued no operation.
	StallCycles int64
	// ALUOcc..CUOcc are the *Busy tallies normalized to the fraction of
	// the slot-cycles (ALU/MUL/CU) or port-cycles (L1/L2) the machine
	// holds. MULOcc's denominator is the multiplier slots the schedule
	// can use, MULsPC on every cluster, which exceeds MULs when there are
	// fewer MULs than clusters (the cost model prices the MULs).
	ALUOcc, MULOcc, L1Occ, L2Occ, CUOcc float64
	// Bound names the resource (machine.Resource: "alu", "mul", "l1",
	// "l2", "cu", or "none") with the highest occupancy.
	Bound string
}

// Profile returns the complete Stats of a run of prog that executes
// each block visits[name] times, counted from the schedule alone: a
// visited block executes all of its cycles (control leaves only after
// the last), so a run's counts are one execution's weighted by visits.
// An operation keeps busy what its machine.Class charges for as long as
// the machine's Capacity says it holds it, and the occupancies divide
// by what the machine holds; so Profile reads nothing of the
// architecture outside its backend signature. The stall count relies
// on a block's ops being in cycle order (vliw.Block, checked by
// sched.Validate). BlockVisits is visits itself.
func Profile(prog *vliw.Program, visits map[string]int64) *Stats {
	st := &Stats{Cycles: prog.StaticCycles(visits), BlockVisits: visits, Bound: machine.ClassNone.String()}
	k, best := prog.Arch.Capacity(), 0.0
	var busy [machine.NumResources]int64 // resource-cycles
	for _, sb := range prog.Blocks {
		n := visits[sb.IR.Name]
		if n == 0 {
			continue
		}
		issuing := 0 // cycles that issue an operation
		var ch machine.Charges
		for i, op := range sb.Ops {
			if i == 0 || op.Cycle != sb.Ops[i-1].Cycle {
				issuing++
			}
			ch.Add(machine.ClassOf(op.Instr).Charges())
		}
		for r, c := range ch {
			busy[r] += n * int64(c*k.Hold[r])
		}
		st.Ops += n * int64(len(sb.Ops))
		st.Bundles += n * int64(sb.Len)
		st.MemAccesses += n * int64(ch[machine.L1]+ch[machine.L2])
		st.StallCycles += n * int64(sb.Len-issuing)
	}
	for _, o := range [...]struct {
		r    machine.Resource
		busy *int64
		occ  *float64
	}{
		{machine.ALU, &st.ALUBusy, &st.ALUOcc}, {machine.MUL, &st.MULBusy, &st.MULOcc},
		{machine.L1, &st.L1Busy, &st.L1Occ}, {machine.L2, &st.L2Busy, &st.L2Occ}, {machine.CU, &st.CUBusy, &st.CUOcc},
	} {
		if *o.busy = busy[o.r]; st.Cycles > 0 && k.Machine[o.r] > 0 {
			*o.occ = float64(*o.busy) / (float64(st.Cycles) * float64(k.Machine[o.r]))
		}
		if *o.occ > best {
			st.Bound, best = o.r.String(), *o.occ
		}
	}
	return st
}

// opKind is what the cycle loop switches on.
type opKind uint8

const (
	kNop   opKind = iota
	kPure         // dest ← op.Eval3(arg[0], arg[1], arg[2]) after delay
	kFused        // dest ← spec.Eval(arg) after delay
	kLoad         // dest ← mem[arg[0]+off] after delay
	kStore        // mem[arg[0]+off] ← arg[1]
	kBr           // next block: then
	kCBr          // next block: then if arg[0] != 0, else els
	kRet
	kBad // names a register with no slot: executing it is error bad[dest]
)

// dop is one scheduled operation, decoded. Operands index engine.regs —
// a register-file slot, or an immediate's entry behind the file — so
// reading one never branches on its kind.
type dop struct {
	kind      opKind
	op        ir.Op
	elem      ir.ElemType
	l1        bool  // memory op on the Level-1 port
	delay     int32 // cycles from issue until dest changes, at least 1
	dest      int32
	arg       [machine.MaxFusedIn]int32
	mem, off  int32 // index into engine.mems, element offset
	then, els int32 // branch targets, as indices into engine.blocks
	spec      *ir.FusedSpec
}

// dblock is one block, decoded: its cycles are engine.cyc's from first
// on. A block that is branched to but was never scheduled has missing
// set; visiting it is the error.
type dblock struct {
	name    string
	first   int32 // index into engine.cyc of the block's cycle 0
	cycles  int32
	missing bool
	visits  int64
}

// memory is a bound array; write is a register result in flight.
type (
	memory struct {
		name string
		data []int32
	}
	write struct{ slot, val int32 }
)

// engine is a program decoded for one run, and the run's state. Its
// arrays outlast the run: a run borrows an idle engine (engines) and
// decodes into arrays an earlier run grew.
type engine struct {
	kernel string
	blocks []dblock
	entry  int32
	// ops holds every block's operations grouped by issue cycle, stores
	// after non-stores (a load samples memory before a same-cycle store
	// lands: the dependence model's store→load distance of 1), otherwise
	// in Block.Ops order. Cycle i, counting through all blocks, issues
	// ops[cyc[i]:cyc[i+1]].
	ops []dop
	cyc []int32
	bad []error
	// regs is the register file — one slot per virtual register, or the
	// clusters' physical files end to end — followed by the immediates.
	regs []int32
	mems []memory
	// The write-back ring: bucket t&mask holds, in issue order, the
	// writes visible from cycle t on. It spans the longest delay; a bucket
	// fits the widest bundle once per distinct delay, all that can land
	// together.
	ring   []write
	ringN  []int32
	mask   int64
	bucket int64
	// decode's working state: where each block stands in blocks, one
	// block's operations in issue order, the distinct result delays; and
	// exec's, when each L2 port is free.
	blockIdx map[*ir.Block]int32
	sorted   []vliw.Op
	delays   []int32
	l2FreeAt []int64
}

// engines holds the engines no run is using (see idle.List: the rule is
// sched.Scratch's).
var engines = idle.New("sim", func() *engine { return &engine{blockIdx: map[*ir.Block]int32{}} })

// release hands e back to engines with every pointer into the program,
// its kernel and the caller's memories dropped, through the capacity of
// the arrays that carry them.
func (e *engine) release() {
	idle.Wipe(e.ops)
	idle.Wipe(e.blocks)
	idle.Wipe(e.mems)
	idle.Wipe(e.bad)
	idle.Wipe(e.sorted)
	clear(e.blockIdx)
	e.kernel = ""
	engines.Put(e)
}

// zeroed returns *buf resized to n zeroed entries and stores it back,
// reusing the array when it is large enough.
func zeroed[T any](buf *[]T, n int) []T {
	s := *buf
	if cap(s) < n {
		s = make([]T, n)
	} else {
		s = s[:n]
		clear(s)
	}
	*buf = s
	return s
}

// pollCycles is how many simulated cycles may pass between two looks at
// the context: tens of microseconds of host time.
const pollCycles = 1 << 14

// Run executes prog against env (same binding conventions as
// ir.Interp), mutating bound memories, and returns cycle-accurate
// statistics.
func Run(prog *vliw.Program, env *ir.Env) (*Stats, error) {
	return RunCtx(context.Background(), prog, env)
}

// RunCtx is Run under a context: the sim span is parented under the
// context's current span (obs.SpanFromContext), so a traced serve job's
// simulation joins the job's trace, and a cancelled context ends the
// run within pollCycles cycles with an error wrapping context.Cause.
func RunCtx(ctx context.Context, prog *vliw.Program, env *ir.Env) (*Stats, error) {
	return run(ctx, prog, env, false)
}

// run is the one simulator behind Run and RunPhysical.
func run(ctx context.Context, prog *vliw.Program, env *ir.Env, physical bool) (*Stats, error) {
	f := prog.F
	sp := obs.StartSpanCtx(ctx, "sim")
	if sp != nil {
		sp.Str("kernel", f.Name).Str("arch", prog.Arch.String()).Str("physical", strconv.FormatBool(physical))
	}
	defer sp.End()

	slot, nslots, err := registerSlots(prog, physical)
	if err != nil {
		return nil, fmt.Errorf("sim %s: %w", f.Name, err)
	}
	if len(env.Args) != len(f.Params) {
		return nil, fmt.Errorf("sim %s: %d args for %d params", f.Name, len(env.Args), len(f.Params))
	}
	e := engines.Get()
	defer e.release()
	if err := e.decode(prog, slot, nslots); err != nil {
		return nil, fmt.Errorf("sim %s: %w", f.Name, err)
	}
	for i, p := range f.Params {
		s, err := slot(p.Reg)
		if err != nil {
			return nil, fmt.Errorf("sim %s: parameter %s: %w", f.Name, p.Name, err)
		}
		e.regs[s] = env.Args[i]
	}
	for i, m := range f.Mems {
		data, ok := env.Mem[m.Name]
		if !ok {
			if m.IsParam {
				return nil, fmt.Errorf("sim %s: parameter array %q not bound", f.Name, m.Name)
			}
			data = make([]int32, m.Size)
			env.Mem[m.Name] = data
		}
		if m.Size > 0 && len(data) < m.Size {
			return nil, fmt.Errorf("sim %s: memory %q has %d elements, needs %d", f.Name, m.Name, len(data), m.Size)
		}
		copy(data, m.Init)
		e.mems[i] = memory{m.Name, data}
	}
	maxCycles := int64(env.MaxSteps)
	if maxCycles == 0 {
		maxCycles = 200_000_000
	}
	if err := e.exec(ctx, prog.Arch, maxCycles); err != nil {
		return nil, err
	}

	visits := map[string]int64{}
	for i := range e.blocks {
		if b := &e.blocks[i]; b.visits > 0 {
			visits[b.name] += b.visits
		}
	}
	st := Profile(prog, visits)
	if sp != nil {
		sp.Int("cycles", st.Cycles).Int("ops", st.Ops).Str("bound", st.Bound)
		obs.GetCounter("sim.runs").Inc()
		obs.GetCounter("sim.cycles").Add(st.Cycles)
	}
	return st, nil
}

// decode flattens prog into e, whatever e held before. slot maps a
// virtual register to its place in a register file of nslots entries; an
// operation naming a register it rejects becomes a kBad, an error only
// if it executes.
func (e *engine) decode(prog *vliw.Program, slot func(ir.Reg) (int32, error), nslots int) error {
	f := prog.F
	if f.Entry() == nil {
		return fmt.Errorf("function has no blocks")
	}
	e.kernel = f.Name
	zeroed(&e.blocks, len(prog.Blocks))
	zeroed(&e.mems, len(f.Mems))
	e.bad = e.bad[:0]
	blockIdx := e.blockIdx
	clear(blockIdx)
	for i, sb := range prog.Blocks {
		blockIdx[sb.IR] = int32(i)
	}
	// blockOf indexes a branch target or the entry; an unscheduled block gets a missing entry.
	blockOf := func(b *ir.Block) int32 {
		i, ok := blockIdx[b]
		if !ok {
			i = int32(len(e.blocks))
			blockIdx[b] = i
			e.blocks = append(e.blocks, dblock{name: b.Name, missing: true})
		}
		return i
	}
	e.entry = blockOf(f.Entry())
	zeroed(&e.ops, prog.OpCount())
	if cap(e.regs) < nslots+len(e.ops) {
		e.regs = make([]int32, 0, nslots+len(e.ops)) // room for an immediate per op before append grows it
	}
	zeroed(&e.regs, nslots)
	if cap(e.cyc) < prog.BundleCount()+1 {
		e.cyc = make([]int32, 0, prog.BundleCount()+1)
	}
	e.cyc = e.cyc[:0]
	sorted := e.sorted
	delays := e.delays[:0] // the distinct ones: a handful
	var longest int32
	widest, base := 0, 0
	for bi, sb := range prog.Blocks {
		if !slices.IsSortedFunc(sb.Ops, func(a, b vliw.Op) int { return cmp.Compare(a.Cycle, b.Cycle) }) {
			return fmt.Errorf("block %s: operations out of cycle order", sb.IR.Name)
		}
		first := int32(len(e.cyc))
		sorted = append(sorted[:0], sb.Ops...)
		slices.SortStableFunc(sorted, func(a, b vliw.Op) int { return cmp.Compare(issueKey(a), issueKey(b)) })
		j := 0
		for t := 0; t < sb.Len; t++ {
			e.cyc = append(e.cyc, int32(base+j))
			start := j
			for j < len(sorted) && int(sorted[j].Cycle) == t {
				j++
			}
			widest = max(widest, j-start)
		}
		if j < len(sorted) {
			return fmt.Errorf("block %s: %s scheduled at cycle %d of %d", sb.IR.Name, sorted[j].Instr.Op, sorted[j].Cycle, sb.Len)
		}
		for _, op := range sorted {
			in, d := op.Instr, &e.ops[base]
			base++
			if len(in.Args) > len(d.arg) {
				return fmt.Errorf("block %s: %s has %d operands, the datapath reads %d", sb.IR.Name, in.Op, len(in.Args), len(d.arg))
			}
			if err := e.operands(d, in, slot); err != nil {
				*d = dop{kind: kBad, dest: int32(len(e.bad))}
				e.bad = append(e.bad, err)
				continue
			}
			d.op = in.Op
			switch in.Op {
			case ir.OpNop:
				d.kind = kNop
			case ir.OpLoad, ir.OpStore:
				d.kind = kLoad
				if in.Op == ir.OpStore {
					d.kind = kStore
				}
				mem := slices.Index(f.Mems, in.Mem) // a handful
				if mem < 0 {
					return fmt.Errorf("block %s: %s of %q, a memory the function does not declare", sb.IR.Name, in.Op, in.Mem.Name)
				}
				d.mem, d.off, d.elem, d.l1 = int32(mem), int32(in.Off), in.Elem, in.Mem.Space == ir.L1
			case ir.OpBr:
				d.kind, d.then = kBr, blockOf(in.Targets[0])
			case ir.OpCBr:
				d.kind, d.then, d.els = kCBr, blockOf(in.Targets[0]), blockOf(in.Targets[1])
			case ir.OpRet:
				d.kind = kRet
			case ir.OpFused:
				d.kind, d.spec = kFused, in.Fused
			default:
				d.kind = kPure
			}
			if in.Op.HasDest() {
				// Below 1 still lands next cycle: this cycle's commit is over.
				d.delay = int32(max(machine.Latency(in, prog.Arch), 1))
				if longest = max(longest, d.delay); !slices.Contains(delays, d.delay) {
					delays = append(delays, d.delay)
				}
			}
		}
		e.blocks[bi] = dblock{name: sb.IR.Name, first: first, cycles: int32(sb.Len)}
	}
	e.cyc = append(e.cyc, int32(base))
	e.sorted, e.delays = sorted, delays

	size := int64(1) << bits.Len32(uint32(longest)) // the power of two above it
	e.mask, e.bucket = size-1, int64(widest)*int64(len(delays))
	if n := int(size * e.bucket); cap(e.ring) < n {
		e.ring = make([]write, n)
	} else {
		e.ring = e.ring[:n] // a bucket is written before it is read
	}
	zeroed(&e.ringN, int(size))
	return nil
}

// issueKey orders a block's operations for issue: by cycle, stores after
// non-stores; a stable sort keeps Block.Ops order otherwise.
func issueKey(op vliw.Op) int {
	if op.Instr.Op == ir.OpStore {
		return 2*int(op.Cycle) + 1
	}
	return 2 * int(op.Cycle)
}

// operands resolves in's operands and destination into d.
func (e *engine) operands(d *dop, in *ir.Instr, slot func(ir.Reg) (int32, error)) (err error) {
	for i, a := range in.Args {
		if a.IsImm() {
			d.arg[i] = int32(len(e.regs))
			e.regs = append(e.regs, a.Imm)
		} else if d.arg[i], err = slot(a.Reg); err != nil {
			return err
		}
	}
	if in.Op.HasDest() {
		d.dest, err = slot(in.Dest)
	}
	return err
}

// errAt reports a failure of the operation issuing in cycle t of b.
func (e *engine) errAt(b *dblock, t int, format string, args ...any) error {
	return fmt.Errorf("sim %s/%s@%d: %s", e.kernel, b.name, t, fmt.Sprintf(format, args...))
}

// exec runs the decoded program from its entry block to a return.
func (e *engine) exec(ctx context.Context, arch machine.Arch, maxCycles int64) error {
	ops, regs, mems := e.ops, e.regs, e.mems
	ring, ringN, mask, bucket := e.ring, e.ringN, e.mask, e.bucket
	l1FreeAt, l2FreeAt, l2Lat := int64(0), zeroed(&e.l2FreeAt, arch.L2Ports), int64(arch.L2Lat)
	var now, nextPoll int64
	for bi, done := e.entry, false; !done; {
		b := &e.blocks[bi]
		if b.missing {
			return fmt.Errorf("sim %s: block %s has no schedule", e.kernel, b.name)
		}
		if now >= nextPoll {
			if ctx.Err() != nil {
				return fmt.Errorf("sim %s: stopped at cycle %d: %w", e.kernel, now, context.Cause(ctx))
			}
			nextPoll = now + pollCycles
		}
		b.visits++
		next := int32(-1)
		starts := e.cyc[b.first : b.first+b.cycles+1]
		for t := range starts[1:] {
			// Writes due now become visible before anything issues.
			if s := now & mask; ringN[s] > 0 {
				for _, w := range ring[s*bucket:][:ringN[s]] {
					regs[w.slot] = w.val
				}
				ringN[s] = 0
			}
			bundle := ops[starts[t]:starts[t+1]]
			for i := range bundle {
				op := &bundle[i]
				var val int32
				switch op.kind {
				case kNop:
					continue
				case kPure:
					val = op.op.Eval3(regs[op.arg[0]], regs[op.arg[1]], regs[op.arg[2]])
				case kFused:
					in := [...]int32{regs[op.arg[0]], regs[op.arg[1]], regs[op.arg[2]], regs[op.arg[3]]}
					val = op.spec.Eval(in[:])
				case kLoad, kStore:
					m := &mems[op.mem]
					idx := int(regs[op.arg[0]]) + int(op.off)
					if idx < 0 || idx >= len(m.data) {
						return e.errAt(b, t, "%s %s[%d] out of bounds (len %d)", op.op, m.name, idx, len(m.data))
					}
					// Ports are not pipelined and stay reserved across blocks.
					if op.l1 {
						if l1FreeAt > now {
							return e.errAt(b, t, "L1 port busy until %d at cycle %d (scheduler bug)", l1FreeAt, now)
						}
						l1FreeAt = now + machine.L1Occupancy
					} else {
						p := 0
						for p < len(l2FreeAt) && l2FreeAt[p] > now {
							p++
						}
						if p == len(l2FreeAt) {
							return e.errAt(b, t, "all %d L2 ports busy at cycle %d (scheduler bug)", len(l2FreeAt), now)
						}
						l2FreeAt[p] = now + l2Lat
					}
					if op.kind == kStore {
						m.data[idx] = op.elem.Truncate(regs[op.arg[1]])
						continue
					}
					val = op.elem.Extend(m.data[idx])
				case kBr:
					next = op.then
					continue
				case kCBr:
					next = op.els
					if regs[op.arg[0]] != 0 {
						next = op.then
					}
					continue
				case kRet:
					done = true
					continue
				case kBad:
					return e.errAt(b, t, "%v", e.bad[op.dest])
				}
				s := (now + int64(op.delay)) & mask
				ring[s*bucket+int64(ringN[s])] = write{op.dest, val}
				ringN[s]++
			}
			now++
			if now > maxCycles {
				return fmt.Errorf("sim %s: exceeded %d cycles", e.kernel, maxCycles)
			}
		}
		if !done && next < 0 {
			return fmt.Errorf("sim %s: block %s fell through without a branch", e.kernel, b.name)
		}
		bi = next
	}
	// now is the cycle after the last: what lands in it was issued in
	// time, anything later was not.
	inFlight := -int(ringN[now&mask])
	for _, n := range ringN {
		inFlight += int(n)
	}
	if inFlight != 0 {
		return fmt.Errorf("sim %s: %d writes still in flight at exit", e.kernel, inFlight)
	}
	return nil
}
