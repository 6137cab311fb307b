package sched

import (
	"fmt"
	"math/bits"

	"customfit/internal/ddg"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/obs"
	"customfit/internal/opt"
	"customfit/internal/vliw"
)

// Schedule list-schedules every block of a partitioned function against
// the architecture's resource model, producing a vliw.Program (without
// register allocation; see Compile for the full driver).
//
// The resource model per cycle:
//
//   - each cluster issues at most ALUsPC ALU-class operations, of which
//     at most MULsPC may be multiplies; inter-cluster moves charge their
//     source cluster's ALU issue;
//   - each cluster has 1 L1 access path and L2PathsPC L2 access paths;
//   - globally, the single L1 port is busy LatL1 cycles per access and
//     each of the p2 L2 ports is busy l2 cycles per access
//     (non-pipelined memories, paper Table 4);
//   - at most Buses() inter-cluster moves issue per cycle;
//   - the single branch unit lives on cluster 0.
//
// Priority is latency-weighted critical-path height. Issue is
// register-pressure throttled: an operation that would push its
// cluster's live-value count past the register file (minus a small
// reserve) is deferred while anything else can make progress, which is
// how schedules degrade gracefully on register-starved machines instead
// of demanding impossible allocations. Pressure the throttle cannot
// avoid (long-lived loop invariants) is the spill iteration's job.
func Schedule(f *ir.Func, arch machine.Arch, pl *Placement) (*vliw.Program, error) {
	cap := arch.RegsPC() - pressureReserve
	if AblatePressureThrottle {
		cap = 1 << 20 // effectively unlimited: classic pressure-blind greedy
	}
	return ScheduleWithCap(f, arch, pl, cap)
}

// AblatePressureThrottle disables the scheduler's live-value budget,
// reverting to the classic pressure-blind greedy list scheduler (an
// ablation switch; see EXPERIMENTS.md).
var AblatePressureThrottle bool

// ScheduleWithCap schedules with an explicit per-cluster live-value
// budget. The compile driver tightens the cap across failing spill
// iterations: a lower cap serializes the schedule, trading ILP for
// register pressure exactly the way a production compiler degrades on
// register-starved machines.
func ScheduleWithCap(f *ir.Func, arch machine.Arch, pl *Placement, cap int) (*vliw.Program, error) {
	return ScheduleMode(f, arch, pl, cap, false)
}

// ScheduleMode additionally selects in-order priority, the
// pressure-safe fallback used after repeated allocation failures.
func ScheduleMode(f *ir.Func, arch machine.Arch, pl *Placement, cap int, inOrder bool) (*vliw.Program, error) {
	prog, _, err := scheduleFunc(f, arch, pl, cap, inOrder, nil, NewScratch())
	return prog, err
}

// scheduleFunc is the scheduling engine: it builds (into sc's one
// skeleton, block after block) or reuses the dependence skeleton of
// every block and list-schedules them, returning the program together
// with the liveness analysis it computed so the compile driver can hand
// the same analysis to the register allocator.
// skels, when non-nil, must be per-block skeletons built from a function
// whose blocks are instruction-for-instruction identical to f's (the
// Prepared cache guarantees this).
func scheduleFunc(f *ir.Func, arch machine.Arch, pl *Placement, cap int, inOrder bool, skels []*ddg.Skeleton, sc *Scratch) (*vliw.Program, *opt.Liveness, error) {
	prog := &vliw.Program{
		Arch:       arch,
		F:          f,
		RegCluster: pl.RegCluster,
	}
	lv := opt.ComputeLiveness(f)
	prog.Blame = make([]int, f.NumRegs())
	prog.Blocks = make([]*vliw.Block, 0, len(f.Blocks))
	for bi, b := range f.Blocks {
		var sk *ddg.Skeleton
		if skels != nil {
			sk = skels[bi]
		} else {
			sk = sc.skel.Build(b, arch)
		}
		sb, _, blame, err := scheduleBlock(f, b, arch, pl, lv, cap, inOrder, sk, sc)
		if err != nil {
			return nil, nil, blockError(f, b, err)
		}
		addBlame(prog.Blame, blame)
		prog.Blocks = append(prog.Blocks, sb)
	}
	return prog, lv, nil
}

// blockError names the block a scheduling error came from. Both compile
// entries word it through here, so they fail alike.
func blockError(f *ir.Func, b *ir.Block, err error) error {
	return fmt.Errorf("sched %s/%s: %w", f.Name, b.Name, err)
}

// addBlame folds a block's sparse blame into a per-register table.
func addBlame(dst []int, blame []regBlame) {
	for _, bl := range blame {
		dst[bl.r] += int(bl.n)
	}
}

// pressureReserve is how many registers per cluster the throttle keeps
// in hand for allocation conservatism (live intervals are coarser than
// the scheduler's exact liveness).
const pressureReserve = 2

// readySet is the scheduler's ready queue. The priority — descending
// critical-path height with ties to earlier program order, or pure
// program order when inOrder is set (the pressure-safe fallback: program
// order is a valid execution order, so the front of the queue is always
// placeable and pressure tracks the program-order peak) — is static per
// block and total, so every instruction gets a rank once (rank 0 issues
// first) and the set is a bitset over ranks. Visiting candidates in
// priority order is find-next-set-bit from a cursor: a deferred
// candidate keeps its bit and costs nothing, a placed one clears it.
//
// The visit sequence is exactly that of a binary heap that pops each
// candidate once per cycle and pushes the deferred ones back at the end
// of it: an instruction readied mid-scan above the cursor is met when
// the cursor reaches it, and one readied below the cursor — which the
// heap would pop next — is queued in late and visited first.
type readySet struct {
	rank  []int32  // instruction index -> rank
	order []int32  // rank -> instruction index
	bits  []uint64 // ready ranks
	lo    int      // no word below this index has a bit set (scans start here)
	cur   int      // ranks below the cursor were visited this cycle
	late  []int32  // ranks readied below the cursor, sorted descending
}

// init ranks the block's n instructions, reusing sc's buffers. Heights
// are small non-negative integers, so the ranking is a counting sort.
func (q *readySet) init(sc *Scratch, heights []int, inOrder bool) {
	n := len(heights)
	q.rank = grow(&sc.rank, n)
	q.order = grow(&sc.order, n)
	q.bits = grow(&sc.readyBits, (n+63)/64)
	q.lo, q.cur, q.late = len(q.bits), 0, sc.late[:0]
	if inOrder {
		for i := range q.rank {
			q.rank[i], q.order[i] = int32(i), int32(i)
		}
		return
	}
	maxH := 0
	for _, h := range heights {
		if h > maxH {
			maxH = h
		}
	}
	// start[h] = number of instructions taller than h; filling in
	// program order keeps equal heights in index order.
	start := grow(&sc.rankStart, maxH+1)
	for _, h := range heights {
		start[h]++
	}
	below := int32(0)
	for h := maxH; h >= 0; h-- {
		start[h], below = below, below+start[h]
	}
	for i, h := range heights {
		r := start[h]
		start[h]++
		q.rank[i], q.order[r] = r, int32(i)
	}
}

// add marks instruction i ready.
func (q *readySet) add(i int32) {
	r := q.rank[i]
	w := int(r >> 6)
	q.bits[w] |= 1 << (uint(r) & 63)
	if w < q.lo {
		q.lo = w
	}
	if int(r) < q.cur {
		// Sorted insertion: the scan loop itself never takes this path
		// (a successor ranks after the instruction that readied it), so
		// the list stays tiny.
		q.late = append(q.late, r)
		for k := len(q.late) - 1; k > 0 && q.late[k-1] < r; k-- {
			q.late[k], q.late[k-1] = q.late[k-1], q.late[k]
		}
	}
}

// remove takes a placed instruction out of the set.
func (q *readySet) remove(i int32) {
	r := q.rank[i]
	q.bits[r>>6] &^= 1 << (uint(r) & 63)
}

// scan returns the lowest ready rank at or above from, or -1.
func (q *readySet) scan(from int) int {
	if lo := q.lo << 6; from < lo {
		from = lo
	}
	w := from >> 6
	if w >= len(q.bits) {
		return -1
	}
	word := q.bits[w] &^ (1<<(uint(from)&63) - 1)
	for word == 0 {
		if w++; w >= len(q.bits) {
			return -1
		}
		word = q.bits[w]
	}
	return w<<6 + bits.TrailingZeros64(word)
}

// next visits the best-priority ready instruction not yet visited this
// cycle; ok is false when every ready instruction has been.
func (q *readySet) next() (i int32, ok bool) {
	if n := len(q.late); n > 0 {
		r := q.late[n-1]
		q.late = q.late[:n-1]
		return q.order[r], true
	}
	r := q.scan(q.cur)
	if r < 0 {
		return 0, false
	}
	q.cur = r + 1
	return q.order[r], true
}

// pending reports whether next would still yield a candidate.
func (q *readySet) pending() bool {
	return len(q.late) > 0 || q.scan(q.cur) >= 0
}

// endScan closes the cycle's scan: every instruction still in the set
// is a candidate again.
func (q *readySet) endScan() {
	for q.lo < len(q.bits) && q.bits[q.lo] == 0 {
		q.lo++
	}
	q.cur, q.late = 0, q.late[:0]
}

// resources tracks per-cycle slot usage and port occupancy in flat
// row-major tables (cycle*clusters + cluster), reused across blocks via
// the Scratch arena.
type resources struct {
	arch machine.Arch
	nc   int
	rows int // per-cycle rows currently valid (zeroed)
	// per cycle, per cluster slot counters
	alu, mul, l1p, l2p, cu []int32
	// per cycle global counters
	bus, br []int32
	// global non-pipelined port free-times
	l1FreeAt int
	l2FreeAt []int
}

func (rs *resources) reset(arch machine.Arch) {
	rs.arch = arch
	rs.nc = arch.Clusters
	rs.rows = 0
	rs.l1FreeAt = 0
	rs.l2FreeAt = grow(&rs.l2FreeAt, arch.L2Ports)
}

// growTo batch-extends per-cycle slot tracking, zeroing only the newly
// exposed rows (earlier rows carry this block's live counts).
func (rs *resources) growTo(cycle int) {
	if cycle < rs.rows {
		return
	}
	rows := rs.rows + 256
	for rows <= cycle {
		rows += 256
	}
	rs.alu = growRows(rs.alu, rs.rows*rs.nc, rows*rs.nc)
	rs.mul = growRows(rs.mul, rs.rows*rs.nc, rows*rs.nc)
	rs.l1p = growRows(rs.l1p, rs.rows*rs.nc, rows*rs.nc)
	rs.l2p = growRows(rs.l2p, rs.rows*rs.nc, rows*rs.nc)
	rs.cu = growRows(rs.cu, rs.rows*rs.nc, rows*rs.nc)
	rs.bus = growRows(rs.bus, rs.rows, rows)
	rs.br = growRows(rs.br, rs.rows, rows)
	rs.rows = rows
}

// growRows resizes s to n entries, keeping the first used entries and
// zeroing the rest, reusing capacity where possible.
func growRows(s []int32, used, n int) []int32 {
	if cap(s) < n {
		ns := make([]int32, n)
		copy(ns, s[:used])
		return ns
	}
	s = s[:n]
	for i := used; i < n; i++ {
		s[i] = 0
	}
	return s
}

// tryPlace checks and reserves machine resources for in at the cycle.
func (rs *resources) tryPlace(in *ir.Instr, cycle int, pl *Placement) bool {
	rs.growTo(cycle)
	a := rs.arch
	c := pl.Cluster(in)
	row := cycle * rs.nc
	switch in.Op {
	case ir.OpXMov:
		src := pl.SrcCluster(in)
		if int(rs.alu[row+src]) >= a.ALUsPC() || int(rs.bus[cycle]) >= a.Buses() {
			return false
		}
		rs.alu[row+src]++
		rs.bus[cycle]++
	case ir.OpMul:
		if int(rs.alu[row+c]) >= a.ALUsPC() || int(rs.mul[row+c]) >= a.MULsPC() {
			return false
		}
		rs.alu[row+c]++
		rs.mul[row+c]++
	case ir.OpLoad, ir.OpStore:
		if in.Mem.Space == ir.L1 {
			if rs.l1p[row+c] >= 1 || rs.l1FreeAt > cycle {
				return false
			}
			rs.l1p[row+c]++
			rs.l1FreeAt = cycle + machine.L1Occupancy
		} else {
			if int(rs.l2p[row+c]) >= a.L2PathsPC() {
				return false
			}
			port := -1
			for i, free := range rs.l2FreeAt {
				if free <= cycle {
					port = i
					break
				}
			}
			if port < 0 {
				return false
			}
			rs.l2p[row+c]++
			rs.l2FreeAt[port] = cycle + a.L2Lat
		}
	case ir.OpFused:
		// One pipelined custom-op unit per cluster: it accepts one fused
		// op per cycle without charging an ALU issue slot (the unit's
		// silicon and register ports are priced by the cost and derate
		// models instead).
		if rs.cu[row+c] >= 1 {
			return false
		}
		rs.cu[row+c]++
	case ir.OpBr, ir.OpCBr, ir.OpRet:
		if rs.br[cycle] >= 1 {
			return false
		}
		rs.br[cycle]++
	case ir.OpNop:
	default: // plain ALU op (incl. mov, select, compares)
		if int(rs.alu[row+c]) >= a.ALUsPC() {
			return false
		}
		rs.alu[row+c]++
	}
	return true
}

// regBlame is one sparse blame contribution: register r occupied a
// saturated cluster through n of a block's pressure-stuck cycles.
type regBlame struct {
	r ir.Reg
	n int32
}

// pressure tracks exact per-cluster live-value counts as the schedule
// is built. All state except the escaping peak slice lives in the
// Scratch arena.
type pressure struct {
	cap        int // per-cluster live-value budget
	live       []int
	peak       []int
	isLive     []bool
	remaining  []int32 // uses left within the block
	immortal   []bool
	regCluster []int

	// Blame is charged lazily. A pressure-stuck cycle blames every value
	// live in a saturated cluster, so instead of walking the registers
	// on each one, stalls[c] counts the stuck cycles that saturated
	// cluster c and since[r] holds stalls[cluster(r)] as of r becoming
	// live: r's blame for this stretch of its life is the difference,
	// taken when it dies (or at block end, see finish). Liveness changes
	// only in place and stuck cycles fall between places, so the
	// difference counts exactly the stuck cycles r was live for.
	stalls  []int32
	since   []int32
	stalled bool
	blame   []regBlame
	liveOut []uint64

	// Reuse certificate (see schedCert): the largest live-value count
	// any wouldExceed check compared against the budget, and whether
	// any check actually fired.
	maxChecked int
	bound      bool
}

func (p *pressure) init(f *ir.Func, b *ir.Block, arch machine.Arch, pl *Placement, lv *opt.Liveness, cap int, sc *Scratch) {
	n := f.NumRegs()
	p.cap = cap
	p.live = grow(&sc.live, arch.Clusters)
	p.peak = make([]int, arch.Clusters) // escapes via vliw.Block.SchedPeak
	p.isLive = grow(&sc.isLive, n)
	p.remaining = grow(&sc.remaining, n)
	p.immortal = grow(&sc.immortal, n)
	p.stalls = grow(&sc.stalls, arch.Clusters)
	p.since = grow(&sc.since, n)
	p.blame = sc.blameOut[:0]
	p.regCluster = pl.RegCluster
	if p.cap < 3 {
		p.cap = 3
	}
	for _, in := range b.Instrs {
		for _, a := range in.Args {
			if a.IsReg() {
				p.remaining[a.Reg]++
			}
		}
	}
	// Only registers live into or out of the block start out live, so
	// walk those two sets rather than every register of the function.
	liveIn, liveOut := lv.Sets(b)
	p.liveOut = liveOut
	opt.EachReg(liveOut, func(r ir.Reg) { p.immortal[r] = true })
	opt.EachReg(liveIn, func(r ir.Reg) {
		if p.remaining[r] > 0 || p.immortal[r] {
			p.isLive[r] = true
			p.live[p.clusterOf(r)]++
		}
	})
}

// stall records a pressure-stuck cycle that saturated cluster c.
func (p *pressure) stall(c int) {
	p.stalls[c]++
	p.stalled = true
}

// settle charges r, which lived in cluster c, for the stuck cycles
// since it became live.
func (p *pressure) settle(r ir.Reg, c int) {
	if n := p.stalls[c] - p.since[r]; n > 0 {
		p.blame = append(p.blame, regBlame{r, n})
	}
}

// finish settles the values still live at the end of the block — the
// live-out set and any result nothing in the block consumed — and
// returns the block's sparse blame (backed by the Scratch).
func (p *pressure) finish(b *ir.Block, sc *Scratch) []regBlame {
	if p.stalled {
		end := func(r ir.Reg) {
			if p.isLive[r] {
				p.isLive[r] = false
				p.settle(r, p.clusterOf(r))
			}
		}
		opt.EachReg(p.liveOut, end)
		for _, in := range b.Instrs {
			if in.Op.HasDest() {
				end(in.Dest)
			}
		}
	}
	sc.blameOut = p.blame[:0]
	return p.blame
}

func (p *pressure) clusterOf(r ir.Reg) int {
	if int(r) < len(p.regCluster) {
		return p.regCluster[r]
	}
	return 0
}

// wouldExceed reports whether placing in now pushes its destination
// cluster past the budget, accounting for argument deaths. Duplicate
// register arguments are detected by scanning the (tiny) argument list
// rather than a heap-allocated set.
func (p *pressure) wouldExceed(in *ir.Instr) bool {
	if p.cap <= 0 || !in.Op.HasDest() {
		return false
	}
	limit := p.cap
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
	v := p.live[cd] + delta
	if v > p.maxChecked {
		p.maxChecked = v
	}
	if v > limit {
		p.bound = true
		return true
	}
	return false
}

// dupArg reports whether reg already appeared among the earlier args.
func dupArg(args []ir.Operand, reg ir.Reg) bool {
	for _, a := range args {
		if a.IsReg() && a.Reg == reg {
			return true
		}
	}
	return false
}

// place updates liveness state for a placed instruction.
func (p *pressure) place(in *ir.Instr) {
	for ai, a := range in.Args {
		if !a.IsReg() {
			continue
		}
		p.remaining[a.Reg]--
		if dupArg(in.Args[:ai], a.Reg) {
			continue
		}
		if p.remaining[a.Reg] <= 0 && !p.immortal[a.Reg] && p.isLive[a.Reg] {
			p.isLive[a.Reg] = false
			c := p.clusterOf(a.Reg)
			p.live[c]--
			p.settle(a.Reg, c)
		}
	}
	if in.Op.HasDest() && !p.isLive[in.Dest] {
		p.isLive[in.Dest] = true
		cd := p.clusterOf(in.Dest)
		p.since[in.Dest] = p.stalls[cd]
		p.live[cd]++
		if p.live[cd] > p.peak[cd] {
			p.peak[cd] = p.live[cd]
		}
	}
}

// schedCert is the reuse certificate of one block schedule: the
// dynamic bounds that, together with the exact resource parameters the
// block's instructions can observe, let the delta compiler (delta.go)
// prove a cached schedule is the one this run would rebuild. The
// scheduler's decision sequence depends on the budget and the scan
// limit only through comparisons against live-value counts and pop
// counts; as long as a new budget clears every count the recorded run
// compared (and the recorded run never hit either limit), the decision
// sequence — and therefore the schedule — is bit-identical.
type schedCert struct {
	// maxPressure is the largest live-value count any budget check
	// compared; pressureBound records whether a check ever fired
	// (deferral or forced placement), which makes the schedule depend
	// on the exact budget value.
	maxPressure   int
	pressureBound bool
	// maxScan is the most ready-queue pops any single cycle performed;
	// scanBound records whether a cycle exhausted its scan budget with
	// candidates still queued, which makes the schedule depend on the
	// exact scan budget.
	maxScan   int
	scanBound bool
}

// scheduleBlock list-schedules one block. The third result is the
// block's sparse blame (see pressure.finish), valid until the next call
// through the same Scratch.
func scheduleBlock(f *ir.Func, b *ir.Block, arch machine.Arch, pl *Placement, lv *opt.Liveness, cap int, inOrder bool, sk *ddg.Skeleton, sc *Scratch) (*vliw.Block, schedCert, []regBlame, error) {
	obs.GetCounter("sched.blocks_scheduled").Inc()
	var cert schedCert
	ins := b.Instrs
	n := len(ins)
	sb := &vliw.Block{IR: b}
	if n == 0 {
		return sb, cert, nil, nil
	}

	unschedPreds := grow(&sc.unschedPreds, n)
	earliest := grow(&sc.earliest, n)
	var ready readySet
	ready.init(sc, sk.Heights, inOrder)
	for i, np := range sk.NPreds {
		unschedPreds[i] = int32(np)
		if np == 0 {
			ready.add(int32(i))
		}
	}
	rs := &sc.res
	rs.reset(arch)
	var pr pressure
	pr.init(f, b, arch, pl, lv, cap, sc)
	placed := 0
	cycle := 0
	last := 0
	// deferred lists the candidates this cycle's scan found issuable
	// (operands ready) but could not place: what a pressure deadlock
	// chooses its forced placement from.
	deferred := sc.deferred[:0]
	cooloff := 0 // cycles to wait after a forced placement before forcing again
	maxCycles := 64*n + 4096
	sb.Ops = make([]vliw.Op, 0, n)

	emit := func(i int32) {
		in := ins[i]
		pr.place(in)
		ready.remove(i)
		if cycle > last {
			last = cycle
		}
		sb.Ops = append(sb.Ops, vliw.Op{
			Instr:      in,
			Cycle:      cycle,
			Cluster:    pl.Cluster(in),
			SrcCluster: pl.SrcCluster(in),
		})
		placed++
		for _, e := range sk.Succs(int(i)) {
			if t := int32(cycle + e.MinDelta); t > earliest[e.To] {
				earliest[e.To] = t
			}
			unschedPreds[e.To]--
			if unschedPreds[e.To] == 0 {
				ready.add(int32(e.To))
			}
		}
	}

	for placed < n {
		if cycle > maxCycles {
			sc.late, sc.deferred = ready.late[:0], deferred[:0]
			return nil, cert, nil, fmt.Errorf("schedule did not converge after %d cycles (%d/%d ops placed)", cycle, placed, n)
		}
		deferred = deferred[:0]
		placedThisCycle := 0
		pressureDeferrals := 0
		// Scanning the whole ready set every cycle is quadratic; after
		// enough candidates fail, the rest of the set almost certainly
		// cannot issue this cycle either.
		scanBudget := 8 * (arch.ALUs + arch.L2Ports + arch.Clusters + 4)
		scanStart := scanBudget
		for scanBudget > 0 {
			i, ok := ready.next()
			if !ok {
				break
			}
			scanBudget--
			if int(earliest[i]) > cycle {
				continue
			}
			if pr.wouldExceed(ins[i]) {
				pressureDeferrals++
				deferred = append(deferred, i)
				continue
			}
			if !rs.tryPlace(ins[i], cycle, pl) {
				deferred = append(deferred, i)
				continue
			}
			emit(i)
			placedThisCycle++
		}
		if pops := scanStart - scanBudget; pops > cert.maxScan {
			cert.maxScan = pops
		}
		if scanBudget == 0 && ready.pending() {
			cert.scanBound = true
		}
		ready.endScan()
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
			best := int32(-1)
			bestKey := [2]int{-1, -1 << 30}
			for _, i := range deferred {
				if ins[i].Op.HasDest() {
					if c := pr.clusterOf(ins[i].Dest); !stuck[c] {
						stuck[c] = true
						pr.stall(c)
					}
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
			if best >= 0 && rs.tryPlace(ins[best], cycle, pl) {
				sb.Forced++
				// Let the admitted value's consumer catch up (producer
				// latency) before forcing more pressure in.
				cooloff = 1 + ddg.Latency(ins[best], arch)
				emit(best)
			}
		}
		cycle++
	}
	sc.late, sc.deferred = ready.late[:0], deferred[:0]
	sb.Len = last + 1
	sb.SchedPeak = pr.peak
	cert.maxPressure = pr.maxChecked
	cert.pressureBound = pr.bound
	return sb, cert, pr.finish(b, sc), nil
}
