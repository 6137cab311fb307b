package sim

// The two interpretive loops the decoded engine replaced — Run's and
// RunPhysical's, with their helpers — kept verbatim (renamed ref*, the
// telemetry span dropped) as test oracles, and the tests that hold the
// engine to them cell by cell rather than only through the golden
// models.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"customfit/internal/bench"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/obs"
	"customfit/internal/opt"
	"customfit/internal/sched"
	"customfit/internal/vliw"
)

// refOccTally accumulates dynamic occupancy during a run; one note() call
// per executed cycle.
type refOccTally struct {
	alu, mul, l1, l2, cu, stalls int64
}

func (o *refOccTally) note(bundle []vliw.Op, arch machine.Arch) {
	if len(bundle) == 0 {
		o.stalls++
		return
	}
	for _, op := range bundle {
		switch op.Instr.Op {
		case ir.OpNop, ir.OpBr, ir.OpCBr, ir.OpRet:
		case ir.OpLoad, ir.OpStore:
			if op.Instr.Mem.Space == ir.L1 {
				o.l1 += machine.L1Occupancy
			} else {
				o.l2 += int64(arch.L2Lat)
			}
		case ir.OpMul:
			o.alu++
			o.mul++
		case ir.OpFused:
			o.cu++ // custom unit; no ALU issue slot charged
		default: // ALU ops, including the source slot of an XMov
			o.alu++
		}
	}
}

// finalize folds the tally into st and computes occupancy fractions.
func refFinalize(st *Stats, arch machine.Arch, o *refOccTally) {
	st.ALUBusy, st.MULBusy = o.alu, o.mul
	st.L1Busy, st.L2Busy = o.l1, o.l2
	st.CUBusy = o.cu
	st.StallCycles = o.stalls
	st.Bound = "none"
	if st.Cycles == 0 {
		return
	}
	cyc := float64(st.Cycles)
	if arch.ALUs > 0 {
		st.ALUOcc = float64(o.alu) / (cyc * float64(arch.ALUs))
	}
	// The multiplier slots a schedule can use: MULsPC on every cluster,
	// which exceeds MULs when there are fewer MULs than clusters.
	st.MULOcc = float64(o.mul) / (cyc * float64(arch.MULsPC()*arch.Clusters))
	st.L1Occ = float64(o.l1) / cyc // single L1 port
	if arch.L2Ports > 0 {
		st.L2Occ = float64(o.l2) / (cyc * float64(arch.L2Ports))
	}
	if !arch.Ops.Empty() {
		st.CUOcc = float64(o.cu) / (cyc * float64(arch.Clusters))
	}
	best := 0.0
	for _, r := range []struct {
		name string
		occ  float64
	}{{"alu", st.ALUOcc}, {"mul", st.MULOcc}, {"l1", st.L1Occ}, {"l2", st.L2Occ}, {"cu", st.CUOcc}} {
		if r.occ > best {
			best = r.occ
			st.Bound = r.name
		}
	}
}

type refPendingWrite struct {
	at  int64
	reg ir.Reg
	val int32
}

// refRun is the parent commit's Run.
func refRun(prog *vliw.Program, env *ir.Env) (*Stats, error) {
	f := prog.F
	if len(env.Args) != len(f.Params) {
		return nil, fmt.Errorf("sim %s: %d args for %d params", f.Name, len(env.Args), len(f.Params))
	}
	regs := make([]int32, f.NumRegs())
	for i, p := range f.Params {
		regs[p.Reg] = env.Args[i]
	}
	mems := make(map[*ir.MemRef][]int32, len(f.Mems))
	for _, m := range f.Mems {
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
		for i, v := range m.Init {
			data[i] = v
		}
		mems[m] = data
	}

	// Pre-sort each block's ops by cycle.
	type blockImage struct {
		sb      *vliw.Block
		byCycle [][]vliw.Op
	}
	images := map[*ir.Block]*blockImage{}
	for _, sb := range prog.Blocks {
		img := &blockImage{sb: sb, byCycle: make([][]vliw.Op, sb.Len)}
		ops := append([]vliw.Op(nil), sb.Ops...)
		sort.Slice(ops, func(i, j int) bool { return ops[i].Cycle < ops[j].Cycle })
		for _, op := range ops {
			img.byCycle[op.Cycle] = append(img.byCycle[op.Cycle], op)
		}
		images[sb.IR] = img
	}

	st := &Stats{BlockVisits: map[string]int64{}}
	var occ refOccTally
	var pend []refPendingWrite
	var now int64
	l1FreeAt := int64(0)
	l2FreeAt := make([]int64, prog.Arch.L2Ports)

	commit := func(upto int64) {
		kept := pend[:0]
		for _, w := range pend {
			if w.at <= upto {
				regs[w.reg] = w.val
			} else {
				kept = append(kept, w)
			}
		}
		pend = kept
	}
	read := func(o ir.Operand) int32 {
		if o.IsImm() {
			return o.Imm
		}
		return regs[o.Reg]
	}

	blk := f.Entry()
	maxCycles := int64(env.MaxSteps)
	if maxCycles == 0 {
		maxCycles = 200_000_000
	}

	for blk != nil {
		img := images[blk]
		if img == nil {
			return nil, fmt.Errorf("sim %s: block %s has no schedule", f.Name, blk.Name)
		}
		st.BlockVisits[blk.Name]++
		st.Bundles += int64(img.sb.Len)
		var next *ir.Block
		done := false
		for t := 0; t < img.sb.Len; t++ {
			commit(now)
			// Phase 1: reads and load sampling (start of cycle).
			type result struct {
				op   vliw.Op
				vals []int32
			}
			bundle := img.byCycle[t]
			occ.note(bundle, prog.Arch)
			results := make([]result, 0, len(bundle))
			for _, op := range bundle {
				in := op.Instr
				vals := make([]int32, len(in.Args))
				for i, a := range in.Args {
					vals[i] = read(a)
				}
				results = append(results, result{op, vals})
			}
			// Phase 2: effects. Loads sample memory before this cycle's
			// stores commit (a same-cycle store is not yet visible),
			// matching the dependence model's store→load distance of 1.
			for pass := 0; pass < 2; pass++ {
				for _, r := range results {
					in := r.op.Instr
					if (in.Op == ir.OpStore) != (pass == 1) {
						continue
					}
					st.Ops++
					switch in.Op {
					case ir.OpNop:
					case ir.OpLoad:
						data := mems[in.Mem]
						idx := int(r.vals[0]) + int(in.Off)
						if idx < 0 || idx >= len(data) {
							return nil, fmt.Errorf("sim %s/%s@%d: load %s[%d] out of bounds (len %d)",
								f.Name, blk.Name, t, in.Mem.Name, idx, len(data))
						}
						if err := refReservePort(in, now, &l1FreeAt, l2FreeAt, prog.Arch); err != nil {
							return nil, fmt.Errorf("sim %s/%s@%d: %w", f.Name, blk.Name, t, err)
						}
						st.MemAccesses++
						pend = append(pend, refPendingWrite{
							at:  now + int64(machine.Latency(in, prog.Arch)),
							reg: in.Dest,
							val: in.Elem.Extend(data[idx]),
						})
					case ir.OpStore:
						data := mems[in.Mem]
						idx := int(r.vals[0]) + int(in.Off)
						if idx < 0 || idx >= len(data) {
							return nil, fmt.Errorf("sim %s/%s@%d: store %s[%d] out of bounds (len %d)",
								f.Name, blk.Name, t, in.Mem.Name, idx, len(data))
						}
						if err := refReservePort(in, now, &l1FreeAt, l2FreeAt, prog.Arch); err != nil {
							return nil, fmt.Errorf("sim %s/%s@%d: %w", f.Name, blk.Name, t, err)
						}
						st.MemAccesses++
						data[idx] = in.Elem.Truncate(r.vals[1])
					case ir.OpBr:
						next = in.Targets[0]
					case ir.OpCBr:
						if r.vals[0] != 0 {
							next = in.Targets[0]
						} else {
							next = in.Targets[1]
						}
					case ir.OpRet:
						done = true
					case ir.OpFused:
						pend = append(pend, refPendingWrite{
							at:  now + int64(machine.Latency(in, prog.Arch)),
							reg: in.Dest,
							val: in.Fused.Eval(r.vals),
						})
					default:
						pend = append(pend, refPendingWrite{
							at:  now + int64(machine.Latency(in, prog.Arch)),
							reg: in.Dest,
							val: in.Op.Eval(r.vals...),
						})
					}
				}
			}
			now++
			st.Cycles++
			if st.Cycles > maxCycles {
				return nil, fmt.Errorf("sim %s: exceeded %d cycles", f.Name, maxCycles)
			}
		}
		if done {
			break
		}
		if next == nil {
			return nil, fmt.Errorf("sim %s: block %s fell through without a branch", f.Name, blk.Name)
		}
		blk = next
	}
	commit(now)
	if len(pend) != 0 {
		return nil, fmt.Errorf("sim %s: %d writes still in flight at exit", f.Name, len(pend))
	}
	refFinalize(st, prog.Arch, &occ)
	return st, nil
}

// refReservePort enforces non-pipelined memory port occupancy across the
// whole run, including across block boundaries.
func refReservePort(in *ir.Instr, now int64, l1FreeAt *int64, l2FreeAt []int64, arch machine.Arch) error {
	if in.Mem.Space == ir.L1 {
		if *l1FreeAt > now {
			return fmt.Errorf("L1 port busy until %d at cycle %d (scheduler bug)", *l1FreeAt, now)
		}
		*l1FreeAt = now + machine.L1Occupancy
		return nil
	}
	for i := range l2FreeAt {
		if l2FreeAt[i] <= now {
			l2FreeAt[i] = now + int64(arch.L2Lat)
			return nil
		}
	}
	return fmt.Errorf("all %d L2 ports busy at cycle %d (scheduler bug)", len(l2FreeAt), now)
}

// refRunPhysical is the parent commit's RunPhysical: no memory-size
// check, no port reservation, no in-flight check at exit.
func refRunPhysical(prog *vliw.Program, env *ir.Env) (*Stats, error) {
	f := prog.F
	if prog.PhysAssign == nil {
		return nil, fmt.Errorf("sim: program has no physical assignment")
	}
	if len(env.Args) != len(f.Params) {
		return nil, fmt.Errorf("sim: %d args for %d params", len(env.Args), len(f.Params))
	}
	rc := prog.Arch.RegsPC()
	files := make([][]int32, prog.Arch.Clusters)
	for c := range files {
		files[c] = make([]int32, rc)
	}
	locate := func(r ir.Reg) (int, int, error) {
		c := 0
		if int(r) < len(prog.RegCluster) {
			c = prog.RegCluster[r]
		}
		if int(r) >= len(prog.PhysAssign) || prog.PhysAssign[r] < 0 {
			return 0, 0, fmt.Errorf("sim: virtual register v%d has no physical assignment", r)
		}
		p := prog.PhysAssign[r]
		if p >= rc {
			return 0, 0, fmt.Errorf("sim: v%d assigned phys %d beyond file size %d", r, p, rc)
		}
		return c, p, nil
	}
	for i, prm := range f.Params {
		c, p, err := locate(prm.Reg)
		if err != nil {
			return nil, err
		}
		files[c][p] = env.Args[i]
	}

	mems := make(map[*ir.MemRef][]int32, len(f.Mems))
	for _, m := range f.Mems {
		data, ok := env.Mem[m.Name]
		if !ok {
			if m.IsParam {
				return nil, fmt.Errorf("sim: parameter array %q not bound", m.Name)
			}
			data = make([]int32, m.Size)
			env.Mem[m.Name] = data
		}
		for i, v := range m.Init {
			data[i] = v
		}
		mems[m] = data
	}

	type physWrite struct {
		at   int64
		c, p int
		val  int32
	}
	var pend []physWrite
	commit := func(upto int64) {
		kept := pend[:0]
		for _, w := range pend {
			if w.at <= upto {
				files[w.c][w.p] = w.val
			} else {
				kept = append(kept, w)
			}
		}
		pend = kept
	}

	images := map[*ir.Block][][]vliw.Op{}
	lens := map[*ir.Block]int{}
	for _, sb := range prog.Blocks {
		byCycle := make([][]vliw.Op, sb.Len)
		ops := append([]vliw.Op(nil), sb.Ops...)
		sort.Slice(ops, func(i, j int) bool { return ops[i].Cycle < ops[j].Cycle })
		for _, op := range ops {
			byCycle[op.Cycle] = append(byCycle[op.Cycle], op)
		}
		images[sb.IR] = byCycle
		lens[sb.IR] = sb.Len
	}

	st := &Stats{BlockVisits: map[string]int64{}}
	var occ refOccTally
	var now int64
	blk := f.Entry()
	maxCycles := int64(env.MaxSteps)
	if maxCycles == 0 {
		maxCycles = 200_000_000
	}
	read := func(o ir.Operand) (int32, error) {
		if o.IsImm() {
			return o.Imm, nil
		}
		c, p, err := locate(o.Reg)
		if err != nil {
			return 0, err
		}
		return files[c][p], nil
	}

	for blk != nil {
		byCycle, ok := images[blk]
		if !ok {
			return nil, fmt.Errorf("sim: block %s has no schedule", blk.Name)
		}
		st.BlockVisits[blk.Name]++
		st.Bundles += int64(lens[blk])
		var next *ir.Block
		done := false
		for t := 0; t < lens[blk]; t++ {
			commit(now)
			type result struct {
				op   vliw.Op
				vals []int32
			}
			occ.note(byCycle[t], prog.Arch)
			var results []result
			for _, op := range byCycle[t] {
				vals := make([]int32, len(op.Instr.Args))
				for i, a := range op.Instr.Args {
					v, err := read(a)
					if err != nil {
						return nil, err
					}
					vals[i] = v
				}
				results = append(results, result{op, vals})
			}
			for pass := 0; pass < 2; pass++ {
				for _, r := range results {
					in := r.op.Instr
					if (in.Op == ir.OpStore) != (pass == 1) {
						continue
					}
					st.Ops++
					switch in.Op {
					case ir.OpNop:
					case ir.OpLoad:
						data := mems[in.Mem]
						idx := int(r.vals[0]) + int(in.Off)
						if idx < 0 || idx >= len(data) {
							return nil, fmt.Errorf("sim: load %s[%d] out of bounds", in.Mem.Name, idx)
						}
						c, p, err := locate(in.Dest)
						if err != nil {
							return nil, err
						}
						st.MemAccesses++
						pend = append(pend, physWrite{
							at: now + int64(machine.Latency(in, prog.Arch)),
							c:  c, p: p, val: in.Elem.Extend(data[idx]),
						})
					case ir.OpStore:
						data := mems[in.Mem]
						idx := int(r.vals[0]) + int(in.Off)
						if idx < 0 || idx >= len(data) {
							return nil, fmt.Errorf("sim: store %s[%d] out of bounds", in.Mem.Name, idx)
						}
						st.MemAccesses++
						data[idx] = in.Elem.Truncate(r.vals[1])
					case ir.OpBr:
						next = in.Targets[0]
					case ir.OpCBr:
						if r.vals[0] != 0 {
							next = in.Targets[0]
						} else {
							next = in.Targets[1]
						}
					case ir.OpRet:
						done = true
					case ir.OpFused:
						c, p, err := locate(in.Dest)
						if err != nil {
							return nil, err
						}
						pend = append(pend, physWrite{
							at: now + int64(machine.Latency(in, prog.Arch)),
							c:  c, p: p, val: in.Fused.Eval(r.vals),
						})
					default:
						c, p, err := locate(in.Dest)
						if err != nil {
							return nil, err
						}
						pend = append(pend, physWrite{
							at: now + int64(machine.Latency(in, prog.Arch)),
							c:  c, p: p, val: in.Op.Eval(r.vals...),
						})
					}
				}
			}
			now++
			st.Cycles++
			if st.Cycles > maxCycles {
				return nil, fmt.Errorf("sim: exceeded %d cycles", maxCycles)
			}
		}
		if done {
			break
		}
		if next == nil {
			return nil, fmt.Errorf("sim: block %s fell through", blk.Name)
		}
		blk = next
	}
	commit(now)
	refFinalize(st, prog.Arch, &occ)
	return st, nil
}

// paperMachines are the baseline and the twelve architectures the
// paper's Tables 8-10 select (the list in the root bench_test.go).
func paperMachines() []machine.Arch {
	out := []machine.Arch{machine.Baseline}
	for _, t := range [][6]int{
		{4, 2, 256, 1, 4, 4}, {8, 2, 128, 1, 4, 4}, {8, 2, 128, 1, 8, 4},
		{8, 4, 256, 1, 4, 4}, {8, 2, 256, 1, 4, 4}, {16, 4, 128, 1, 4, 8},
		{16, 4, 256, 2, 4, 8}, {16, 4, 512, 1, 4, 8}, {8, 4, 512, 1, 4, 4},
		{16, 4, 512, 1, 8, 8}, {16, 8, 256, 1, 4, 8}, {8, 2, 256, 1, 8, 4},
	} {
		out = append(out, machine.Arch{ALUs: t[0], MULs: t[1], Regs: t[2], L2Ports: t[3], L2Lat: t[4], Clusters: t[5]})
	}
	return out
}

// sameRun holds one engine run to the reference's: the same error text,
// or the same Stats and the same contents in every memory.
func sameRun(t *testing.T, what string, ref, got *Stats, refErr, gotErr error, refMem, gotMem map[string][]int32) {
	t.Helper()
	if fmt.Sprint(refErr) != fmt.Sprint(gotErr) {
		t.Fatalf("%s: engine error %v, reference %v", what, gotErr, refErr)
	}
	if refErr != nil {
		return
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("%s: stats differ\nengine    %+v\nreference %+v", what, got, ref)
	}
	if !reflect.DeepEqual(refMem, gotMem) {
		t.Fatalf("%s: memories differ", what)
	}
}

// TestEngineMatchesReference runs every kernel on every paper machine
// at unroll 1 and 2, and on op-enabled machines with the pinned
// mac/add_add catalog, through the engine and through the loops it
// replaced, virtual and physical: Stats and every memory are equal.
func TestEngineMatchesReference(t *testing.T) {
	archs := paperMachines()
	set, err := machine.ParseOpCatalog([]string{
		"mac/3/2:mul $0 $1;add %0 $2",
		"add_add/3/1:add $0 $1;add %0 $2",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 7} {
		a := archs[i]
		a.Ops = machine.OpConfig{Set: set, Mask: set.FullMask()}
		archs = append(archs, a)
	}
	if testing.Short() {
		archs = []machine.Arch{archs[0], archs[7], archs[len(archs)-1]}
	}
	cells, fused := 0, 0
	for _, b := range bench.All() {
		fn, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		cse := b.NewCase(40, 3)
		for _, u := range []int{1, 2} {
			prepared, err := opt.Prepare(fn, u)
			if err != nil {
				t.Fatal(err)
			}
			for _, arch := range archs {
				res, err := sched.Compile(prepared, arch)
				if errors.Is(err, sched.ErrNoFit) {
					continue // the explorer would not use this cell either
				}
				if err != nil {
					t.Fatalf("%s u=%d %s: %v", b.Name, u, arch, err)
				}
				cells++
				for _, sb := range res.Prog.Blocks {
					for _, op := range sb.Ops {
						if op.Instr.Op == ir.OpFused {
							fused++
						}
					}
				}
				what := fmt.Sprintf("%s u=%d %s", b.Name, u, arch)
				refCase, gotCase := cse.Clone(), cse.Clone()
				ref, refErr := refRun(res.Prog, refCase.Env())
				got, gotErr := Run(res.Prog, gotCase.Env())
				sameRun(t, what, ref, got, refErr, gotErr, refCase.Mem, gotCase.Mem)
				if refErr != nil {
					t.Fatalf("%s: %v", what, refErr)
				}
				refCase, gotCase = cse.Clone(), cse.Clone()
				ref, refErr = refRunPhysical(res.Prog, refCase.Env())
				got, gotErr = RunPhysical(res.Prog, gotCase.Env())
				if refErr != nil || gotErr != nil {
					t.Fatalf("%s physical: engine error %v, reference %v", what, gotErr, refErr)
				}
				sameRun(t, what+" physical", ref, got, nil, nil, refCase.Mem, gotCase.Mem)
			}
		}
	}
	if !testing.Short() && cells < 280 {
		t.Errorf("only %d cells compiled", cells)
	}
	if fused == 0 {
		t.Error("no program carried an OpFused: the op-enabled machines did not put it on the path")
	}
}

// handOp is an instruction and the cycle of its block it issues in.
type handOp struct {
	in    *ir.Instr
	cycle int
}

// handProgram is a hand-made schedule: the listed blocks' operations at
// their cycles, with an identity physical assignment so the same program
// runs virtual and physical. A block of f left out of blocks has no
// schedule.
func handProgram(f *ir.Func, arch machine.Arch, blocks map[*ir.Block][]handOp, lens map[*ir.Block]int) *vliw.Program {
	prog := &vliw.Program{Arch: arch, F: f, RegCluster: make([]int, f.NumRegs()), PhysAssign: make([]int, f.NumRegs())}
	for r := range prog.PhysAssign {
		prog.PhysAssign[r] = r
	}
	for _, b := range f.Blocks {
		ops, ok := blocks[b]
		if !ok {
			continue
		}
		sb := &vliw.Block{IR: b, Len: lens[b]}
		for _, o := range ops {
			sb.Ops = append(sb.Ops, vliw.Op{Instr: o.in, Cycle: int32(o.cycle)})
		}
		prog.Blocks = append(prog.Blocks, sb)
	}
	return prog
}

var handArch = machine.Arch{ALUs: 4, MULs: 2, Regs: 64, L2Ports: 1, L2Lat: 2, Clusters: 1}

// oneBlock builds a single-block kernel over an L2 parameter array
// "out" and an L1 local "tab"; body adds the operations.
func oneBlock(name string, length int, body func(f *ir.Func, out, tab *ir.MemRef) []handOp) *vliw.Program {
	f := ir.NewFunc(name)
	out := f.AddMem(&ir.MemRef{Name: "out", Space: ir.L2, Elem: ir.ElemI32, Size: 4, IsParam: true})
	tab := f.AddMem(&ir.MemRef{Name: "tab", Space: ir.L1, Elem: ir.ElemI32, Size: 4})
	b := f.NewBlock("entry")
	ops := body(f, out, tab)
	for _, o := range ops {
		b.Append(o.in)
	}
	return handProgram(f, handArch, map[*ir.Block][]handOp{b: ops}, map[*ir.Block]int{b: length})
}

func store(m *ir.MemRef, idx, val ir.Operand) *ir.Instr {
	return &ir.Instr{Op: ir.OpStore, Dest: ir.NoReg, Args: []ir.Operand{idx, val}, Mem: m, Elem: ir.ElemI32}
}

func load(m *ir.MemRef, dest ir.Reg, idx ir.Operand) *ir.Instr {
	return &ir.Instr{Op: ir.OpLoad, Dest: dest, Args: []ir.Operand{idx}, Mem: m, Elem: ir.ElemI32}
}

func ret() *ir.Instr { return &ir.Instr{Op: ir.OpRet, Dest: ir.NoReg} }

// TestErrorPathsMatchReference runs every way a run can fail, and the
// corners of the timing contract that must not (an exposed latency
// violation, same-cycle ordering), through both engines.
// Virtual runs agree on the error text. Physical runs agree with the
// virtual ones, and with the old physical loop wherever it had the check
// at all.
func TestErrorPathsMatchReference(t *testing.T) {
	saxpy := func(t *testing.T) *vliw.Program { return compileKernel(t, simSrc, machine.Baseline, 1) }
	saxpyEnv := func(nx, nout int) func() *ir.Env {
		return func() *ir.Env {
			return ir.NewEnv(8).Bind("x", make([]int32, nx)).Bind("y", make([]int32, 8)).Bind("out", make([]int32, nout))
		}
	}
	outEnv := func() *ir.Env { return ir.NewEnv().Bind("out", make([]int32, 4)) }
	cases := []struct {
		name string
		prog func(t *testing.T) *vliw.Program
		env  func() *ir.Env
		want string // substring of the error; "" for a clean run
		// physWant is what RunPhysical reports when it is not Run's error.
		physWant string
		// refPhysical is how the old physical loop took the case: "same"
		// (error or nil like the engine), "missed" (no such check: it ran
		// clean), or "panic".
		refPhysical string
	}{
		{name: "load out of bounds", prog: saxpy, env: saxpyEnv(2, 8), want: "load x[2] out of bounds (len 2)", refPhysical: "same"},
		{name: "store out of bounds", prog: saxpy, env: saxpyEnv(8, 3), want: "store out[3] out of bounds (len 3)", refPhysical: "same"},
		{name: "unbound parameter", prog: saxpy, env: func() *ir.Env { return ir.NewEnv(8) }, want: "not bound", refPhysical: "same"},
		{name: "argument count", prog: saxpy, env: func() *ir.Env { return ir.NewEnv() }, want: "0 args for 1 params", refPhysical: "same"},
		{
			name: "L1 port conflict",
			prog: func(*testing.T) *vliw.Program {
				return oneBlock("l1", 5, func(f *ir.Func, out, tab *ir.MemRef) []handOp {
					r0, r1 := f.NewReg(), f.NewReg()
					return []handOp{{load(tab, r0, ir.Imm(0)), 0}, {load(tab, r1, ir.Imm(1)), 0}, {ret(), 4}}
				})
			},
			env: outEnv, want: "l1/entry0@0: L1 port busy until 1 at cycle 0", refPhysical: "missed",
		},
		{
			name: "L2 port conflict",
			prog: func(*testing.T) *vliw.Program {
				return oneBlock("l2", 4, func(f *ir.Func, out, tab *ir.MemRef) []handOp {
					return []handOp{{store(out, ir.Imm(0), ir.Imm(5)), 0}, {store(out, ir.Imm(1), ir.Imm(6)), 1}, {ret(), 3}}
				})
			},
			env: outEnv, want: "l2/entry0@1: all 1 L2 ports busy at cycle 1", refPhysical: "missed",
		},
		{
			name: "latency violation is visible, not an error",
			prog: func(*testing.T) *vliw.Program {
				return oneBlock("stale", 5, func(f *ir.Func, out, tab *ir.MemRef) []handOp {
					r0, r1 := f.NewReg(), f.NewReg()
					return []handOp{
						{ir.NewInstr(ir.OpMul, r0, ir.Imm(6), ir.Imm(7)), 0},
						{ir.NewInstr(ir.OpMov, r1, ir.R(r0)), 1}, // a cycle early
						{store(out, ir.Imm(0), ir.R(r1)), 3},
						{ret(), 4},
					}
				})
			},
			env: outEnv, refPhysical: "same",
		},
		{
			name: "a load samples memory before a same-cycle store lands",
			prog: func(*testing.T) *vliw.Program {
				p := oneBlock("order", 6, func(f *ir.Func, out, tab *ir.MemRef) []handOp {
					r0 := f.NewReg()
					return []handOp{
						{store(out, ir.Imm(0), ir.Imm(7)), 0},
						{store(out, ir.Imm(0), ir.Imm(9)), 2}, // listed before the load it shares a cycle with
						{load(out, r0, ir.Imm(0)), 2},
						{store(out, ir.Imm(1), ir.R(r0)), 4}, // 7, not 9
						{ret(), 5},
					}
				})
				p.Arch.L2Ports = 2
				return p
			},
			env: outEnv, refPhysical: "same",
		},
		{
			name: "writes landing in one cycle commit in issue order",
			prog: func(*testing.T) *vliw.Program {
				return oneBlock("together", 4, func(f *ir.Func, out, tab *ir.MemRef) []handOp {
					r0 := f.NewReg()
					return []handOp{
						{ir.NewInstr(ir.OpMul, r0, ir.Imm(6), ir.Imm(7)), 0}, // lands at 2
						{ir.NewInstr(ir.OpMov, r0, ir.Imm(5)), 1},            // lands at 2, after it
						{store(out, ir.Imm(0), ir.R(r0)), 2},
						{ret(), 3},
					}
				})
			},
			env: outEnv, refPhysical: "same",
		},
		{
			name: "a latency below 1 is visible on the next cycle",
			prog: func(*testing.T) *vliw.Program {
				p := oneBlock("instant", 4, func(f *ir.Func, out, tab *ir.MemRef) []handOp {
					r0, r1, r2 := f.NewReg(), f.NewReg(), f.NewReg()
					double := &ir.FusedSpec{Name: "double", NIn: 1, Lat: 0, Steps: []ir.FusedStep{{Op: ir.OpAdd, A: ir.Ext(0), B: ir.Ext(0)}}}
					return []handOp{
						{&ir.Instr{Op: ir.OpFused, Dest: r0, Args: []ir.Operand{ir.Imm(3)}, Fused: double}, 0},
						{ir.NewInstr(ir.OpMov, r1, ir.R(r0)), 0}, // still 0
						{ir.NewInstr(ir.OpMov, r2, ir.R(r0)), 1}, // 6
						{store(out, ir.Imm(0), ir.R(r1)), 2},
						{store(out, ir.Imm(1), ir.R(r2)), 2},
						{ret(), 3},
					}
				})
				p.Arch.L2Ports = 2
				return p
			},
			env: outEnv, refPhysical: "same",
		},
		{
			name: "fall-through",
			prog: func(*testing.T) *vliw.Program {
				return oneBlock("fall", 2, func(f *ir.Func, out, tab *ir.MemRef) []handOp {
					return []handOp{{ir.NewInstr(ir.OpMov, f.NewReg(), ir.Imm(1)), 0}}
				})
			},
			env: outEnv, want: "block entry0 fell through", refPhysical: "same",
		},
		{
			name: "cycle limit",
			prog: spinProgram,
			env: func() *ir.Env {
				env := outEnv()
				env.MaxSteps = 100
				return env
			},
			want: "exceeded 100 cycles", refPhysical: "same",
		},
		{
			name: "branch to an unscheduled block",
			prog: func(*testing.T) *vliw.Program {
				f := ir.NewFunc("gap")
				f.AddMem(&ir.MemRef{Name: "out", Space: ir.L2, Elem: ir.ElemI32, Size: 4, IsParam: true})
				b, lost := f.NewBlock("entry"), f.NewBlock("lost")
				br := &ir.Instr{Op: ir.OpBr, Dest: ir.NoReg, Targets: []*ir.Block{lost}}
				b.Append(br)
				lost.Append(ret())
				return handProgram(f, handArch, map[*ir.Block][]handOp{b: {{br, 0}}}, map[*ir.Block]int{b: 1})
			},
			env: outEnv, want: "block lost1 has no schedule", refPhysical: "same",
		},
		{
			name: "short memory",
			prog: func(*testing.T) *vliw.Program {
				p := oneBlock("short", 1, func(f *ir.Func, out, tab *ir.MemRef) []handOp {
					return []handOp{{ret(), 0}}
				})
				p.F.MemByName("tab").Init = []int32{1, 2, 3, 4}
				return p
			},
			env:  func() *ir.Env { return outEnv().Bind("tab", make([]int32, 2)) },
			want: `memory "tab" has 2 elements, needs 4`, refPhysical: "panic",
		},
		{
			name: "writes in flight at exit",
			prog: func(*testing.T) *vliw.Program {
				return oneBlock("late", 1, func(f *ir.Func, out, tab *ir.MemRef) []handOp {
					return []handOp{{ir.NewInstr(ir.OpMul, f.NewReg(), ir.Imm(6), ir.Imm(7)), 0}, {ret(), 0}}
				})
			},
			env: outEnv, want: "1 writes still in flight at exit", refPhysical: "missed",
		},
		{
			name: "unassigned physical register",
			prog: func(*testing.T) *vliw.Program {
				p := oneBlock("homeless", 3, func(f *ir.Func, out, tab *ir.MemRef) []handOp {
					r0 := f.NewReg()
					return []handOp{{ir.NewInstr(ir.OpMov, r0, ir.Imm(1)), 1}, {store(out, ir.Imm(0), ir.R(r0)), 2}, {ret(), 2}}
				})
				p.PhysAssign[0] = -1
				return p
			},
			env: outEnv, physWant: "homeless/entry0@1: virtual register v0 has no physical assignment", refPhysical: "same",
		},
		{
			name: "unassigned register in a block that never runs",
			prog: func(*testing.T) *vliw.Program {
				f := ir.NewFunc("dead")
				f.AddMem(&ir.MemRef{Name: "out", Space: ir.L2, Elem: ir.ElemI32, Size: 4, IsParam: true})
				b, dead := f.NewBlock("entry"), f.NewBlock("dead")
				r0 := f.NewReg()
				cbr := &ir.Instr{Op: ir.OpCBr, Dest: ir.NoReg, Args: []ir.Operand{ir.Imm(0)}, Targets: []*ir.Block{dead, b}}
				mov, r1, r2 := ir.NewInstr(ir.OpMov, r0, ir.Imm(1)), ret(), ret()
				b.Append(r1)
				dead.Append(mov)
				dead.Append(cbr)
				dead.Append(r2)
				p := handProgram(f, handArch,
					map[*ir.Block][]handOp{b: {{r1, 0}}, dead: {{mov, 0}, {cbr, 1}, {r2, 1}}},
					map[*ir.Block]int{b: 1, dead: 2})
				p.PhysAssign[0] = -1
				return p
			},
			env: outEnv, refPhysical: "same",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog := c.prog(t)
			refEnv, gotEnv := c.env(), c.env()
			ref, refErr := refRun(prog, refEnv)
			got, gotErr := Run(prog, gotEnv)
			sameRun(t, "virtual", ref, got, refErr, gotErr, refEnv.Mem, gotEnv.Mem)
			if (c.want == "") != (gotErr == nil) || (gotErr != nil && !strings.Contains(gotErr.Error(), c.want)) {
				t.Fatalf("Run: error %v, want %q", gotErr, c.want)
			}

			physWant := c.want
			if c.physWant != "" {
				physWant = c.physWant
			}
			physEnv := c.env()
			phys, physErr := RunPhysical(prog, physEnv)
			if (physWant == "") != (physErr == nil) || (physErr != nil && !strings.Contains(physErr.Error(), physWant)) {
				t.Fatalf("RunPhysical: error %v, want %q", physErr, physWant)
			}
			if c.physWant == "" {
				sameRun(t, "physical against virtual", got, phys, gotErr, physErr, gotEnv.Mem, physEnv.Mem)
			}

			refEnv = c.env()
			var refPhysErr error
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				_, refPhysErr = refRunPhysical(prog, refEnv)
				return false
			}()
			switch c.refPhysical {
			case "same":
				if panicked || (refPhysErr == nil) != (physErr == nil) {
					t.Errorf("old physical loop: panicked=%v err=%v, engine %v", panicked, refPhysErr, physErr)
				}
			case "missed":
				if panicked || refPhysErr != nil || physErr == nil {
					t.Errorf("old physical loop: panicked=%v err=%v (expected a clean run), engine %v", panicked, refPhysErr, physErr)
				}
			case "panic":
				if !panicked || physErr == nil {
					t.Errorf("old physical loop: panicked=%v (expected a panic), engine %v", panicked, physErr)
				}
			}
		})
	}
}

// spinProgram is a one-cycle block that branches to itself: it runs
// until the cycle limit or the context stops it.
func spinProgram(*testing.T) *vliw.Program {
	f := ir.NewFunc("spin")
	f.AddMem(&ir.MemRef{Name: "out", Space: ir.L2, Elem: ir.ElemI32, Size: 4, IsParam: true})
	b := f.NewBlock("entry")
	br := &ir.Instr{Op: ir.OpBr, Dest: ir.NoReg, Targets: []*ir.Block{b}}
	b.Append(br)
	return handProgram(f, handArch, map[*ir.Block][]handOp{b: {{br, 0}}}, map[*ir.Block]int{b: 1})
}

// TestAllocationsIndependentOfCycles pins the engine's allocation
// profile: what a run allocates depends on the program, never on how
// many cycles it executes.
func TestAllocationsIndependentOfCycles(t *testing.T) {
	b := bench.ByName("A")
	fn, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := opt.Prepare(fn, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Compile(prepared, paperMachines()[1])
	if err != nil {
		t.Fatal(err)
	}
	measure := func(width int) (allocs float64, cycles int64) {
		env := b.NewCase(width, 1).Env()
		allocs = testing.AllocsPerRun(5, func() {
			st, err := Run(res.Prog, env)
			if err != nil {
				t.Fatal(err)
			}
			cycles = st.Cycles
		})
		return allocs, cycles
	}
	a64, c64 := measure(64)
	a256, c256 := measure(256)
	if c256 < 3*c64 {
		t.Fatalf("width 256 ran %d cycles, width 64 %d: the widths do not separate", c256, c64)
	}
	if a64 != a256 {
		t.Errorf("Run allocates %.0f objects at width 64 (%d cycles) and %.0f at width 256 (%d cycles)", a64, c64, a256, c256)
	}
}

// TestRunCtxCancelled: a context that is already over stops the run
// before its first cycle, one cancelled mid-run stops it within the
// poll interval, and both errors carry the cause.
func TestRunCtxCancelled(t *testing.T) {
	prog := spinProgram(t)
	cause := errors.New("operator gave up")
	env := func() *ir.Env { return ir.NewEnv().Bind("out", make([]int32, 4)) }

	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	if _, err := RunCtx(ctx, prog, env()); !errors.Is(err, cause) {
		t.Errorf("cancelled before the run: err = %v, want the cause", err)
	}

	ctx, cancel = context.WithCancelCause(context.Background())
	defer cancel(nil)
	time.AfterFunc(5*time.Millisecond, func() { cancel(cause) })
	start := time.Now()
	_, err := RunCtx(ctx, prog, env()) // 200M cycles if nothing stops it
	if !errors.Is(err, cause) {
		t.Errorf("cancelled mid-run: err = %v, want the cause", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("cancelled mid-run: returned after %v", d)
	}
}

// TestPhysicalRunIsTraced: RunPhysical opens the same sim span and bumps
// the same counters as Run, told apart by the physical attribute.
func TestPhysicalRunIsTraced(t *testing.T) {
	col := obs.NewCollector()
	obs.Install(col)
	defer obs.Install(nil)
	prog := compileKernel(t, simSrc, machine.Baseline, 1)
	env := func() *ir.Env {
		return ir.NewEnv(4).Bind("x", make([]int32, 4)).Bind("y", make([]int32, 4)).Bind("out", make([]int32, 4))
	}
	virt, err := Run(prog, env())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunPhysical(prog, env()); err != nil {
		t.Fatal(err)
	}
	var physical []any
	for _, ev := range col.Events() {
		if ev.Name != "sim" {
			continue
		}
		for _, a := range ev.Attrs {
			if a.Key == "physical" {
				physical = append(physical, a.Value())
			}
		}
	}
	if !reflect.DeepEqual(physical, []any{"false", "true"}) {
		t.Errorf("sim spans' physical attributes = %v, want [false true]", physical)
	}
	if runs, cycles := col.Counter("sim.runs").Value(), col.Counter("sim.cycles").Value(); runs != 2 || cycles != 2*virt.Cycles {
		t.Errorf("sim.runs = %d, sim.cycles = %d, want 2 and %d", runs, cycles, 2*virt.Cycles)
	}
}
