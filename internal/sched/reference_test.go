package sched

// Reference implementations of the mechanisms the cold spill loop
// replaced — the binary ready heap, eager blame, the pressure check
// worked out from the argument list, a resource check on every ask, the
// per-victim spill rewrite — kept as test oracles, and the tests that
// hold their successors to them directly rather than only through
// goldens.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/cc"
	"customfit/internal/cc/cctest"
	"customfit/internal/ddg"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/obs"
	"customfit/internal/opt"
	"customfit/internal/vliw"
)

// readyHeap is a min-heap of instruction indices ordered by descending
// critical-path height (ties to earlier program order), or pure program
// order when inOrder is set (the pressure-safe fallback: program order
// is a valid execution order, so the front of the queue is always
// placeable and pressure tracks the program-order peak). The ordering
// is total — no two entries compare equal — so the pop sequence is
// independent of heap layout.
type readyHeap struct {
	idx     []int32
	heights []int32
	inOrder bool
}

func (q *readyHeap) less(a, b int32) bool {
	if q.inOrder {
		return a < b
	}
	if q.heights[a] != q.heights[b] {
		return q.heights[a] > q.heights[b]
	}
	return a < b
}

func (q *readyHeap) push(x int32) {
	q.idx = append(q.idx, x)
	i := len(q.idx) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(q.idx[i], q.idx[p]) {
			break
		}
		q.idx[i], q.idx[p] = q.idx[p], q.idx[i]
		i = p
	}
}

func (q *readyHeap) pop() int32 {
	top := q.idx[0]
	n := len(q.idx) - 1
	q.idx[0] = q.idx[n]
	q.idx = q.idx[:n]
	if n > 0 {
		q.down(0)
	}
	return top
}

func (q *readyHeap) down(i int) {
	n := len(q.idx)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && q.less(q.idx[r], q.idx[l]) {
			m = r
		}
		if !q.less(q.idx[m], q.idx[i]) {
			return
		}
		q.idx[i], q.idx[m] = q.idx[m], q.idx[i]
		i = m
	}
}

func (q *readyHeap) reinit() {
	for i := len(q.idx)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// refDelta is the definition of the change placing in now makes to the
// live-value count of its destination's cluster, read off the
// scheduler's liveness state and the argument list: +1 for a
// destination not live yet, -1 per distinct non-immortal argument homed
// on that cluster whose last use this is. The scheduler keeps the same
// number current in cand.delta; the reference recounts it at every
// visit.
func refDelta(p *pressure, in *ir.Instr) int {
	cd := p.clusterOf(in.Dest)
	delta := 0
	if !p.isLive[in.Dest] {
		delta++
	}
	for ai, a := range in.Args {
		if !a.IsReg() || dupArg(in.Args[:ai], a.Reg) {
			continue
		}
		if p.isLive[a.Reg] && !p.immortal[a.Reg] && p.remaining[a.Reg] == 1 &&
			p.clusterOf(a.Reg) == cd && a.Reg != in.Dest {
			delta--
		}
	}
	return delta
}

// refScheduleBlock is scheduleBlock as it stood before the ready set,
// lazy blame, stored pressure deltas and remembered refusals: a
// readyHeap re-heapified every cycle, blame bumped eagerly into a dense
// per-register table, the pressure check recounted from the argument
// list (and the scheduler's stored delta held to the recount, at every
// visit), every candidate that gets that far put to tryPlace. The
// liveness bookkeeping (pressure.init, pressure.place) and the resource
// tables are the scheduler's own, under the identity ranking: which
// ranking the records stand in is no business of theirs. The second
// result is the number of candidates visited, over all cycles.
func refScheduleBlock(t *testing.T, f *ir.Func, b *ir.Block, arch machine.Arch, pl *Placement, lv *opt.Liveness, cap int, blame []int, inOrder bool, sk *ddg.Skeleton, sc *Scratch) (*vliw.Block, int, schedCert, error) {
	var cert schedCert
	ins := b.Instrs
	n := len(ins)
	sb := &vliw.Block{IR: b}
	if n == 0 {
		return sb, 0, cert, nil
	}

	unschedPreds := make([]int32, n)
	earliest := make([]int32, n)
	for i, np := range sk.NPreds {
		unschedPreds[i] = np
	}
	ready := readyHeap{heights: sk.Heights, inOrder: inOrder}
	for i := 0; i < n; i++ {
		if unschedPreds[i] == 0 {
			ready.push(int32(i))
		}
	}
	identity := make([]int32, n)
	cands := make([]cand, n)
	rs := &sc.res
	rs.reset(arch)
	for i, in := range ins {
		identity[i] = int32(i)
		cands[i].res = classify(in, pl)
	}
	var pr pressure
	pr.init(f, b, arch, pl, lv, cap, identity, cands, make([]int, arch.Clusters), sc)
	wouldExceed := func(i int32) bool {
		in := ins[i]
		if !in.Op.HasDest() {
			return false
		}
		delta := refDelta(&pr, in)
		if int(cands[i].delta) != delta || int(cands[i].cd) != pr.clusterOf(in.Dest) {
			t.Fatalf("block %s, %s: stored delta %d on cluster %d, recount %d on cluster %d",
				b.Name, in, cands[i].delta, cands[i].cd, delta, pr.clusterOf(in.Dest))
		}
		v := pr.live[pr.clusterOf(in.Dest)] + delta
		if v > pr.maxChecked {
			pr.maxChecked = v
		}
		if v > pr.cap {
			pr.bound = true
			return true
		}
		return false
	}
	placed := 0
	cycle := 0
	last := 0
	visits := 0
	var deferred []int32
	cooloff := 0 // cycles to wait after a forced placement before forcing again
	maxCycles := 64*n + 4096
	sb.Ops = make([]vliw.Op, 0, n)

	emit := func(i int32) {
		in := ins[i]
		pr.place(in)
		if cycle > last {
			last = cycle
		}
		sb.Ops = append(sb.Ops, vliw.Op{
			Instr:      in,
			Cycle:      int32(cycle),
			Cluster:    int16(pl.Cluster(in)),
			SrcCluster: int16(pl.SrcCluster(in)),
		})
		placed++
		for _, e := range sk.Succs(int(i)) {
			if t := int32(cycle) + e.MinDelta; t > earliest[e.To] {
				earliest[e.To] = t
			}
			unschedPreds[e.To]--
			if unschedPreds[e.To] == 0 {
				ready.push(e.To)
			}
		}
	}

	for placed < n {
		if cycle > maxCycles {
			return nil, visits, cert, fmt.Errorf("schedule did not converge after %d cycles (%d/%d ops placed)", cycle, placed, n)
		}
		deferred = deferred[:0]
		placedThisCycle := 0
		pressureDeferrals := 0
		// Scanning the whole ready set every cycle is quadratic; after
		// enough candidates fail, the rest of the heap almost certainly
		// cannot issue this cycle either.
		scanBudget := 8 * (arch.ALUs + arch.L2Ports + arch.Clusters + 4)
		scanStart := scanBudget
		for len(ready.idx) > 0 && scanBudget > 0 {
			scanBudget--
			i := ready.pop()
			if int(earliest[i]) > cycle {
				deferred = append(deferred, i)
				continue
			}
			if wouldExceed(i) {
				pressureDeferrals++
				deferred = append(deferred, i)
				continue
			}
			if !rs.tryPlace(cands[i].res, cycle) {
				deferred = append(deferred, i)
				continue
			}
			emit(i)
			placedThisCycle++
		}
		pops := scanStart - scanBudget
		visits += pops
		if pops > cert.maxScan {
			cert.maxScan = pops
		}
		if scanBudget == 0 && len(ready.idx) > 0 {
			cert.scanBound = true
		}
		// Pressure deadlock: every issuable candidate would overflow the
		// budget, and the consumers that would relieve it are not ready
		// because these very candidates block them. Force exactly one
		// through, preferring the operation that completes some
		// successor's operand set (so a pressure-reducing consumer
		// becomes ready soonest), then critical-path height.
		if cooloff > 0 {
			cooloff--
		}
		if placedThisCycle == 0 && pressureDeferrals > 0 && cooloff == 0 {
			// Blame the values occupying the saturated clusters: they
			// are what a pressure-aware compiler would spill.
			stuck := grow(&sc.stuck, arch.Clusters)
			for _, i := range deferred {
				if int(earliest[i]) <= cycle && ins[i].Op.HasDest() {
					stuck[pr.clusterOf(ins[i].Dest)] = true
				}
			}
			for r := 0; r < len(pr.isLive) && r < len(blame); r++ {
				if pr.isLive[r] && stuck[pr.clusterOf(ir.Reg(r))] {
					blame[r]++
				}
			}
			best := int32(-1)
			bestKey := [2]int{-1, -1 << 30}
			for _, i := range deferred {
				if int(earliest[i]) > cycle {
					continue
				}
				enables := 0
				for _, e := range sk.Succs(int(i)) {
					if unschedPreds[e.To] == 1 {
						enables++ // i is the successor's last unscheduled input
					}
				}
				// Tie-break by PROGRAM order, not priority: the frontend
				// emits expressions depth-first, so program order is the
				// register-lean (Sethi-Ullman-like) evaluation order —
				// exactly what a fully serialized machine should follow.
				key := [2]int{enables, -int(i)}
				if key[0] > bestKey[0] || (key[0] == bestKey[0] && key[1] > bestKey[1]) {
					best, bestKey = i, key
				}
			}
			if best >= 0 && rs.tryPlace(cands[best].res, cycle) {
				sb.Forced++
				// Let the admitted value's consumer catch up (producer
				// latency) before forcing more pressure in.
				cooloff = 1 + machine.Latency(ins[best], arch)
				emit(best)
				for i, d := range deferred {
					if d == best {
						deferred = append(deferred[:i], deferred[i+1:]...)
						break
					}
				}
			}
		}
		ready.idx = append(ready.idx, deferred...)
		ready.reinit()
		cycle++
	}
	sb.Len = last + 1
	sb.SchedPeak = pr.peak
	cert.maxPressure = pr.maxChecked
	cert.pressureBound = pr.bound
	return sb, visits, cert, nil
}

// refSpillRewrite is SpillRewrite as it stood before the one-pass
// rewrite: one victim at a time, every block rebuilt for each.
func refSpillRewrite(f *ir.Func, regs []ir.Reg) int {
	done := 0
	for _, r := range regs {
		if refRewriteOne(f, r) {
			done++
		}
	}
	return done
}

func refRewriteOne(f *ir.Func, r ir.Reg) bool {
	// Collect definitions and uses.
	type site struct {
		b   *ir.Block
		idx int
	}
	var defs, uses []site
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			for _, a := range in.Args {
				if a.IsReg() && a.Reg == r {
					uses = append(uses, site{b, i})
					break
				}
			}
			if in.Op.HasDest() && in.Dest == r {
				defs = append(defs, site{b, i})
			}
		}
	}
	if len(uses) == 0 {
		return false // nothing to relieve
	}

	// Rematerialization: single def by a constant-table load.
	if len(defs) == 1 {
		d := defs[0].b.Instrs[defs[0].idx]
		if d.Op == ir.OpLoad && d.Mem.Const && d.Args[0].IsImm() {
			refRematerialize(f, r, d)
			return true
		}
	}

	isParam := false
	for _, p := range f.Params {
		if p.Reg == r {
			isParam = true
		}
	}
	if len(defs) == 0 && !isParam {
		return false
	}

	spill := f.MemByName(SpillMemName)
	if spill == nil {
		spill = f.AddMem(&ir.MemRef{Name: SpillMemName, Space: ir.L1, Elem: ir.ElemI32})
	}
	slot := int32(spill.Size)
	spill.Size++

	// Insert per block, rebuilding instruction lists. Stores follow
	// defs; loads into fresh temps precede uses.
	for _, b := range f.Blocks {
		var out []*ir.Instr
		for _, in := range b.Instrs {
			usesR := false
			for _, a := range in.Args {
				if a.IsReg() && a.Reg == r {
					usesR = true
				}
			}
			if usesR {
				t := f.NewReg()
				out = append(out, &ir.Instr{
					Op: ir.OpLoad, Dest: t,
					Args: []ir.Operand{ir.Imm(slot)},
					Mem:  spill, Elem: ir.ElemI32,
				})
				for i, a := range in.Args {
					if a.IsReg() && a.Reg == r {
						in.Args[i] = ir.R(t)
					}
				}
			}
			out = append(out, in)
			if in.Op.HasDest() && in.Dest == r {
				out = append(out, &ir.Instr{
					Op: ir.OpStore, Dest: ir.NoReg,
					Args: []ir.Operand{ir.Imm(slot), ir.R(r)},
					Mem:  spill, Elem: ir.ElemI32,
				})
			}
		}
		b.Instrs = out
	}
	if isParam {
		// The incoming value must reach the slot before any reload.
		entry := f.Entry()
		st := &ir.Instr{
			Op: ir.OpStore, Dest: ir.NoReg,
			Args: []ir.Operand{ir.Imm(slot), ir.R(r)},
			Mem:  spill, Elem: ir.ElemI32,
		}
		entry.Instrs = append([]*ir.Instr{st}, entry.Instrs...)
	}
	return true
}

// refRematerialize deletes the hoisted constant load defining r and
// replays it in front of every use.
func refRematerialize(f *ir.Func, r ir.Reg, def *ir.Instr) {
	for _, b := range f.Blocks {
		var out []*ir.Instr
		for _, in := range b.Instrs {
			if in == def {
				continue // drop the hoisted load
			}
			usesR := false
			for _, a := range in.Args {
				if a.IsReg() && a.Reg == r {
					usesR = true
				}
			}
			if usesR {
				t := f.NewReg()
				cp := def.Clone()
				cp.Dest = t
				out = append(out, cp)
				for i, a := range in.Args {
					if a.IsReg() && a.Reg == r {
						in.Args[i] = ir.R(t)
					}
				}
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
}

// TestReadySetVisitsLikeHeap drives the rank-bitset ready set and the
// reference heap through the same random cycles — candidates deferred or
// placed, instructions readied mid-scan at any rank after the placement
// that readies them (the rank invariant: see readySet), scan budgets that
// run out, a forced placement after the scan — and requires the same
// visit order and the same "anything left" answer at every step.
func TestReadySetVisitsLikeHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sc := NewScratch()
	sameWord, exhausted := 0, 0
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(300)
		spread := 1 + rng.Intn(12) // few distinct heights: many ties
		heights := make([]int32, n)
		for i := range heights {
			heights[i] = int32(1 + rng.Intn(spread))
		}
		inOrder := trial%3 == 0
		var q readySet
		q.init(sc, heights, inOrder)
		h := readyHeap{heights: heights, inOrder: inOrder}
		waiting := rng.Perm(n) // not yet ready
		inSet := 0
		// release readies up to k waiting instructions ranking after
		// above (-1: any).
		release := func(k int, above int32) {
			for w := len(waiting) - 1; w >= 0 && k > 0; w-- {
				i := int32(waiting[w])
				if q.rank[i] <= above {
					continue
				}
				if above >= 0 && q.rank[i]>>6 == above>>6 {
					sameWord++
				}
				waiting = append(waiting[:w], waiting[w+1:]...)
				q.add(q.rank[i])
				h.push(i)
				inSet++
				k--
			}
		}
		release(1+rng.Intn(16), -1)
		for cycle := 0; inSet > 0 || len(waiting) > 0; cycle++ {
			if cycle > 50*n+100 {
				t.Fatalf("trial %d: no progress", trial)
			}
			budget := 1 + rng.Intn(12)
			var deferred []int32
			pos := q.begin()
			for budget > 0 {
				r := q.visit(&pos)
				if (r >= 0) != (len(h.idx) > 0) {
					t.Fatalf("trial %d cycle %d: visit gives rank %d with %d in the heap", trial, cycle, r, len(h.idx))
				}
				if r < 0 {
					break
				}
				budget--
				i := q.order[r]
				if want := h.pop(); i != want {
					t.Fatalf("trial %d cycle %d: visited %d, heap pops %d", trial, cycle, i, want)
				}
				if rng.Intn(3) == 0 {
					q.remove(r)
					inSet--
					release(rng.Intn(4), r) // readied mid-scan
					q.placed(&pos, r)
				} else {
					deferred = append(deferred, i)
				}
			}
			if budget == 0 && len(h.idx) > 0 {
				exhausted++
			}
			if q.pending(pos) != (len(h.idx) > 0) {
				t.Fatalf("trial %d cycle %d: pending=%v with %d in the heap", trial, cycle, q.pending(pos), len(h.idx))
			}
			// The scheduler's forced placement comes after the scan.
			if len(deferred) > 0 && rng.Intn(4) == 0 {
				k := rng.Intn(len(deferred))
				q.remove(q.rank[deferred[k]])
				inSet--
				deferred = append(deferred[:k], deferred[k+1:]...)
				release(rng.Intn(3), -1)
			}
			h.idx = append(h.idx, deferred...)
			h.reinit()
			if inSet == 0 {
				release(1, -1)
			}
		}
	}
	if sameWord == 0 || exhausted == 0 {
		t.Fatalf("walk too tame: %d readied mid-scan into the word being walked, %d exhausted budgets", sameWord, exhausted)
	}
}

// preparedKernels returns every benchmark kernel prepared at each unroll
// factor it supports, keyed "<name>/u<factor>".
func preparedKernels(t *testing.T, factors ...int) map[string]*ir.Func {
	t.Helper()
	out := map[string]*ir.Func{}
	for _, bm := range bench.All() {
		fn, err := bm.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range factors {
			g, err := opt.Prepare(fn, u)
			if err != nil {
				continue // unroll limit of this kernel
			}
			out[fmt.Sprintf("%s/u%d", bm.Name, u)] = g
		}
	}
	return out
}

// funcText renders everything a spill rewrite may change: the register
// count, the arrays with their sizes, and every instruction.
func funcText(f *ir.Func) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "regs %d\n", f.NumRegs())
	for _, m := range f.Mems {
		fmt.Fprintf(&sb, "mem %s size %d\n", m.Name, m.Size)
	}
	sb.WriteString(f.String())
	return sb.String()
}

// TestSpillRewriteMatchesPerVictim holds the one-pass rewrite to the
// per-victim routine on all 11 kernels at every unroll factor, over
// three successive rounds of victims (so later rounds spill earlier
// rounds' temporaries and extend an existing spill array): identical
// instruction streams, register numbering and slot numbering.
func TestSpillRewriteMatchesPerVictim(t *testing.T) {
	kernels := preparedKernels(t, 1, 2, 4, 8)
	// The benchmark kernels take one scalar each; the order of several
	// parameters' entry stores needs a kernel with more.
	fn, err := cc.CompileKernel(`
		kernel scale(byte in[], byte out[], int n, int gain, int bias, int top) {
			int i;
			for (i = 0; i < n; i++) {
				int v;
				v = in[i] * gain + bias;
				if (v > top) { v = top; }
				out[i] = v;
			}
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if kernels["scale/u2"], err = opt.Prepare(fn, 2); err != nil {
		t.Fatal(err)
	}
	for name, base := range kernels {
		rng := rand.New(rand.NewSource(int64(len(name)) + int64(base.NumRegs())))
		got, want := base.Clone(), base.Clone()
		spilled := map[ir.Reg]bool{}
		for round := 0; round < 3; round++ {
			// Parameters and constant-table loads take the special paths
			// (entry store, rematerialization): always offer some.
			var special []ir.Reg
			for _, p := range got.Params {
				special = append(special, p.Reg)
			}
			for _, b := range got.Blocks {
				for _, in := range b.Instrs {
					if in.Op == ir.OpLoad && in.Mem.Const && in.Args[0].IsImm() {
						special = append(special, in.Dest)
					}
				}
			}
			var victims []ir.Reg
			pick := func(r ir.Reg) {
				if !spilled[r] {
					spilled[r] = true
					victims = append(victims, r)
				}
			}
			for _, p := range got.Params {
				pick(p.Reg)
			}
			for k := 0; k < 4 && len(special) > 0; k++ {
				pick(special[rng.Intn(len(special))])
			}
			for k := 4 + rng.Intn(60); k > 0; k-- {
				pick(ir.Reg(rng.Intn(got.NumRegs())))
			}
			rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
			n, refN := SpillRewrite(got, victims), refSpillRewrite(want, victims)
			if n != refN {
				t.Fatalf("%s round %d: rewrote %d registers, per-victim routine %d", name, round, n, refN)
			}
			if g, w := funcText(got), funcText(want); g != w {
				t.Fatalf("%s round %d (victims %v): rewrite differs from the per-victim routine\n--- got\n%s\n--- want\n%s", name, round, victims, g, w)
			}
			for _, b := range got.Blocks {
				if len(b.Instrs) != cap(b.Instrs) {
					t.Errorf("%s round %d block %s: %d instructions in a list sized for %d", name, round, b.Name, len(b.Instrs), cap(b.Instrs))
				}
			}
		}
	}
}

// sameBlock compares two schedules of one block op for op.
func sameBlock(a, b *vliw.Block) error {
	if a.Len != b.Len || a.Forced != b.Forced || len(a.Ops) != len(b.Ops) {
		return fmt.Errorf("len %d forced %d ops %d, reference len %d forced %d ops %d",
			a.Len, a.Forced, len(a.Ops), b.Len, b.Forced, len(b.Ops))
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			return fmt.Errorf("op %d: %+v, reference %+v", i, a.Ops[i], b.Ops[i])
		}
	}
	if fmt.Sprint(a.SchedPeak) != fmt.Sprint(b.SchedPeak) {
		return fmt.Errorf("peak %v, reference %v", a.SchedPeak, b.SchedPeak)
	}
	return nil
}

// generatedKernels returns n seeded cctest.Kernel draws prepared at
// unroll 1 and 4, keyed "gen<seed>/u<factor>".
func generatedKernels(t *testing.T, n int) map[string]*ir.Func {
	t.Helper()
	out := map[string]*ir.Func{}
	for seed := 0; seed < n; seed++ {
		src := cctest.Kernel(rand.New(rand.NewSource(int64(seed))))
		fn, err := cc.CompileKernel(src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		for _, u := range []int{1, 4} {
			g, err := opt.Prepare(fn, u)
			if err != nil {
				t.Fatalf("seed %d unroll %d: %v\n%s", seed, u, err, src)
			}
			out[fmt.Sprintf("gen%d/u%d", seed, u)] = g
		}
	}
	return out
}

// TestSchedulerMatchesHeapAndEagerBlame schedules every block of the 11
// kernels at unroll 1 and 2, and of 120 generated kernels at unroll 1
// and 4, on register-starved machines — budgets down to the floor, both
// priority modes — with the scheduler and with the reference (binary
// heap, blame bumped on every stuck cycle, pressure recounted and
// resources asked at every visit), and requires the same schedule, the
// same number of candidates visited, the same reuse certificate and the
// same blame.
func TestSchedulerMatchesHeapAndEagerBlame(t *testing.T) {
	archs := []machine.Arch{
		{ALUs: 1, MULs: 1, Regs: 64, L2Ports: 1, L2Lat: 8, Clusters: 1},
		{ALUs: 8, MULs: 2, Regs: 128, L2Ports: 1, L2Lat: 8, Clusters: 4},
	}
	kernels := preparedKernels(t, 1, 2)
	generated := 120
	if testing.Short() || raceEnabled {
		generated = 12
	}
	for name, f := range generatedKernels(t, generated) {
		kernels[name] = f
	}
	col := obs.NewCollector()
	obs.Install(col)
	defer obs.Install(nil)
	visited := col.Counter("sched.scan_visits")
	sc, refSC := NewScratch(), NewScratch()
	blamed, forced, scanBound, repeated := 0, 0, 0, 0
	for name, f := range kernels {
		for _, arch := range archs {
			g, pl := PartitionClone(f, arch)
			lv := opt.ComputeLiveness(g)
			skels := make([]*ddg.Skeleton, len(g.Blocks))
			for bi, b := range g.Blocks {
				skels[bi] = ddg.BuildSkeleton(b, arch)
				for _, in := range b.Instrs {
					if len(in.Args) == 2 && in.Args[0].IsReg() && in.Args[0] == in.Args[1] {
						repeated++
					}
				}
			}
			for _, cap := range []int{3, arch.RegsPC() - pressureReserve} {
				for _, inOrder := range []bool{false, true} {
					for bi, b := range g.Blocks {
						sk := skels[bi]
						before := visited.Value()
						sb := newBlock(b, arch.Clusters)
						cert, sparse, err := scheduleBlock(g, b, arch, pl, lv, cap, inOrder, sk, sc, sb)
						visits := int(visited.Value() - before)
						eager := make([]int, g.NumRegs())
						refSB, refVisits, refCert, refErr := refScheduleBlock(t, g, b, arch, pl, lv, cap, eager, inOrder, sk, refSC)
						where := fmt.Sprintf("%s %s cap %d inOrder %v block %s", name, arch, cap, inOrder, b.Name)
						if (err == nil) != (refErr == nil) {
							t.Fatalf("%s: error %v, reference %v", where, err, refErr)
						}
						if err != nil {
							continue
						}
						if err := sameBlock(sb, refSB); err != nil {
							t.Fatalf("%s: %v", where, err)
						}
						if visits != refVisits {
							t.Fatalf("%s: visited %d candidates, reference %d", where, visits, refVisits)
						}
						if cert != refCert {
							t.Fatalf("%s: certificate %+v, reference %+v", where, cert, refCert)
						}
						lazy := make([]int, g.NumRegs())
						addBlame(lazy, sparse)
						for r := range lazy {
							if lazy[r] != eager[r] {
								t.Fatalf("%s: blame[%d] = %d, eager %d", where, r, lazy[r], eager[r])
							}
							blamed += lazy[r]
						}
						forced += sb.Forced
						if cert.scanBound {
							scanBound++
						}
					}
				}
			}
		}
	}
	if blamed == 0 || forced == 0 || scanBound == 0 {
		t.Fatalf("machines not starved enough: blame %d, forced placements %d, scan-bound blocks %d", blamed, forced, scanBound)
	}
	// The generated kernels multiply a value by itself here and there,
	// which the benchmark kernels never do: the stored deltas have to
	// follow the use counts through it (see TestRepeatedOperandNeverDies).
	if generated == 120 && repeated == 0 {
		t.Fatal("no instruction names one register twice")
	}
}
