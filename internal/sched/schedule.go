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

// ScheduleWithCap list-schedules every block of a partitioned function
// against the architecture's resource model, producing a vliw.Program
// (without register allocation; see Compile for the full driver).
//
// The resource model per cycle. What an operation takes when it issues
// is its class's charges in the machine description (machine.Class);
// what there is to take is the machine's capacity (machine.Capacity):
// each cluster's issue slots and memory paths, the buses and the branch
// unit the clusters share, and the L1 and L2 port pools, each port busy
// for an access's hold.
//
// Priority is latency-weighted critical-path height. Issue is
// register-pressure throttled: an operation that would push its
// cluster's live-value count past cap (the compile driver's is the
// register file less a small reserve) is deferred while anything else
// can make progress, which is how schedules degrade gracefully on
// register-starved machines instead of demanding impossible
// allocations. Pressure the throttle cannot avoid (long-lived loop
// invariants) is the spill iteration's job.
func ScheduleWithCap(f *ir.Func, arch machine.Arch, pl *Placement, cap int) (*vliw.Program, error) {
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	prog, _, err := scheduleFunc(f, arch, pl, cap, false, NewScratch())
	return prog, err
}

// Variant is a backend variant: the shipped compiler with some of its
// design choices switched off. The zero value is the shipped backend.
type Variant struct {
	opt.Passes              // what a Prepared's kernel was optimized and unrolled under
	NoPressureThrottle bool // no live-value budget: classic pressure-blind greedy
}

// liveBudget is the per-cluster live-value budget every schedule of the
// compile driver runs under: the register file less pressureReserve, or
// effectively unlimited — classic pressure-blind greedy — under
// NoPressureThrottle.
func (v Variant) liveBudget(arch machine.Arch) int {
	if v.NoPressureThrottle {
		return 1 << 20
	}
	return arch.RegsPC() - pressureReserve
}

// scheduleFunc is the scheduling engine of the spill rounds: it builds
// the dependence skeleton of every block into sc's one builder, block
// after block, and list-schedules them into the round's memory
// (roundMem), returning the program together with the liveness analysis
// it computed so the compile driver can hand the same analysis to the
// register allocator. Both are valid until the next round through sc.
func scheduleFunc(f *ir.Func, arch machine.Arch, pl *Placement, cap int, inOrder bool, sc *Scratch) (*vliw.Program, *opt.Liveness, error) {
	r := &sc.round
	r.lv.Recompute(f)
	nc := arch.Clusters
	r.begin(f.NumInstrs(), len(f.Blocks), nc)
	blame := grow(&r.blame, f.NumRegs())
	for bi, b := range f.Blocks {
		sb := r.block(bi, b, nc)
		_, bl, err := scheduleBlock(f, b, arch, pl, &r.lv, cap, inOrder, sc.skel.Build(b, arch), sc, sb)
		if err != nil {
			return nil, nil, blockError(f, b, err)
		}
		r.at = append(r.at, sc.issued...)
		addBlame(blame, bl)
		r.table = append(r.table, sb)
	}
	prog := &r.prog
	*prog = vliw.Program{
		Arch:       arch,
		F:          f,
		Blocks:     r.table,
		RegCluster: pl.RegCluster,
		Blame:      blame,
	}
	return prog, &r.lv, nil
}

// newBlock returns the empty schedule of b, with room for its ops and
// its scheduler peak on nc clusters, for scheduleBlock to fill: one of
// its own, for round 1, whose blocks the partition class's ring and the
// Result keep (roundMem.block cuts a spill round's).
func newBlock(b *ir.Block, nc int) *vliw.Block {
	if len(b.Instrs) == 0 {
		return &vliw.Block{IR: b}
	}
	return &vliw.Block{IR: b, Ops: make([]vliw.Op, 0, len(b.Instrs)), SchedPeak: make([]int, nc)}
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

// cand is what one visit of the scan reads about a candidate. The
// records stand in rank order, so a scan walks memory forwards and a
// refusal touches nothing else.
type cand struct {
	// earliest is the first cycle every operand is available.
	earliest int32
	// delta is the change in live values on cluster cd if the candidate
	// issues now: +1 for a destination not live yet, -1 per distinct
	// non-immortal argument homed on cd whose last use this is.
	// pressure keeps it current (see pressure.place).
	delta int16
	// res is the issue resource the candidate needs (see
	// resources.classify).
	res resource
	// cd is the destination's home cluster, -1 without a destination
	// (nothing to check against the budget).
	cd int8
}

// readySet is the scheduler's ready queue. The priority — descending
// critical-path height with ties to earlier program order, or pure
// program order when inOrder is set (the pressure-safe fallback: program
// order is a valid execution order, so the front of the queue is always
// placeable and pressure tracks the program-order peak) — is static per
// block and total, so every instruction gets a rank once (rank 0 issues
// first) and the set is a bitset over ranks. Visiting candidates in
// priority order is walking the set bits upward (scanPos): a deferred
// candidate keeps its bit and costs nothing, a placed one clears it.
//
// The visit sequence is exactly that of a binary heap that pops each
// candidate once per cycle and pushes the deferred ones back at the end
// of it, because an instruction readied mid-scan always ranks after the
// placement that readied it and is met when the walk reaches it. That
// is the rank invariant: every dependence edge runs forward in program
// order with MinDelta >= 0, so a successor is no taller than its
// predecessor and loses the tie — rank[to] > rank[from] in both
// priority modes (asserted over every skeleton the ddg tests build).
type readySet struct {
	rank  []int32  // instruction index -> rank
	order []int32  // rank -> instruction index
	bits  []uint64 // ready ranks
	lo    int      // no word below this index has a bit set (scans start here)
}

// init ranks the block's n instructions, reusing sc's buffers. Heights
// are small non-negative integers, so the ranking is a counting sort.
func (q *readySet) init(sc *Scratch, heights []int32, inOrder bool) {
	n := len(heights)
	q.rank = grow(&sc.rank, n)
	q.order = grow(&sc.order, n)
	q.bits = grow(&sc.readyBits, (n+63)/64)
	q.lo = len(q.bits)
	if inOrder {
		for i := range q.rank {
			q.rank[i], q.order[i] = int32(i), int32(i)
		}
		return
	}
	maxH := int32(0)
	for _, h := range heights {
		maxH = max(maxH, h)
	}
	// start[h] = number of instructions taller than h; filling in
	// program order keeps equal heights in index order.
	start := grow(&sc.rankStart, int(maxH)+1)
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

// add marks rank r ready.
func (q *readySet) add(r int32) {
	w := int(r >> 6)
	q.bits[w] |= 1 << (uint(r) & 63)
	if w < q.lo {
		q.lo = w
	}
}

// remove takes a placed rank out of the set.
func (q *readySet) remove(r int32) {
	q.bits[r>>6] &^= 1 << (uint(r) & 63)
}

// scanPos is a walk's position in the ready set: the word it is in and
// the bits of that word it has not visited yet.
type scanPos struct {
	w    int
	word uint64
}

// begin starts a walk at the lowest ready rank.
func (q *readySet) begin() scanPos {
	for q.lo < len(q.bits) && q.bits[q.lo] == 0 {
		q.lo++
	}
	if q.lo == len(q.bits) {
		return scanPos{w: q.lo}
	}
	return scanPos{q.lo, q.bits[q.lo]}
}

// visit returns the best-priority ready rank the walk has not visited,
// or -1 when it has visited them all.
func (q *readySet) visit(p *scanPos) int32 {
	for p.word == 0 {
		if p.w+1 >= len(q.bits) {
			return -1
		}
		p.w++
		p.word = q.bits[p.w]
	}
	r := p.w<<6 + bits.TrailingZeros64(p.word)
	p.word &= p.word - 1
	return int32(r)
}

// placed continues the walk after the rank it just visited was removed
// and its successors added: those rank after it (the rank invariant),
// so the ones that landed in its word are the word's bits above it, and
// later words are read when the walk gets there.
func (q *readySet) placed(p *scanPos, r int32) {
	p.word = q.bits[p.w] &^ (2<<(uint(r)&63) - 1)
}

// pending reports whether visit would still yield a candidate.
func (q *readySet) pending(p scanPos) bool {
	if p.word != 0 {
		return true
	}
	for w := p.w + 1; w < len(q.bits); w++ {
		if q.bits[w] != 0 {
			return true
		}
	}
	return false
}

// resource is an issue resource a candidate needs: a machine.Class on
// a cluster (cluster<<resKindBits | class; a machine has at most 16
// clusters). What tryPlace checks for a candidate depends on nothing
// else.
type resource uint8

const resKindBits = 3

var _ [1<<resKindBits - machine.NumClasses]struct{} // a class fits its bits

// resources tracks per-cycle slot usage and port occupancy in flat
// row-major tables (cycle*clusters + cluster), reused across blocks via
// the Scratch arena.
type resources struct {
	k    machine.Capacity // what a cycle holds
	nc   int
	rows int // per-cycle rows currently valid (zeroed)
	// per cycle, per cluster slot counters: bytes, a valid machine has
	// at most 16 ALUs (every entry point validates the arch)
	alu, mul, l1p, l2p, cu []uint8
	// per cycle global counters
	bus, br []uint8
	// the memory levels' port pools: when each port is free
	l1Free, l2Free []int
	// refusedAt[res] is 1 + the last cycle tryPlace refused resource
	// res. Within a cycle slots and port free-times only fill, so a
	// resource refused once stays refused until the next cycle and a
	// scan need not ask again (see refused).
	refusedAt []int32
}

func (rs *resources) reset(arch machine.Arch) {
	rs.k = arch.Capacity()
	rs.nc = arch.Clusters
	rs.rows = 0
	rs.l1Free = grow(&rs.l1Free, rs.k.Machine[machine.L1])
	rs.l2Free = grow(&rs.l2Free, rs.k.Machine[machine.L2])
	rs.refusedAt = grow(&rs.refusedAt, rs.nc<<resKindBits)
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
func growRows(s []uint8, used, n int) []uint8 {
	if cap(s) < n {
		ns := make([]uint8, n)
		copy(ns, s[:used])
		return ns
	}
	s = s[:n]
	for i := used; i < n; i++ {
		s[i] = 0
	}
	return s
}

// classify returns the issue resource in needs: its class on the
// cluster it issues from.
func classify(in *ir.Instr, pl *Placement) resource {
	class, c := machine.ClassOf(in), pl.SrcCluster(in)
	if class == machine.ClassBr || class == machine.ClassNone {
		c = 0 // the one branch unit; nothing at all
	}
	return resource(c)<<resKindBits | resource(class)
}

// refused reports whether tryPlace already refused res this cycle,
// which it would do again.
func (rs *resources) refused(res resource, cycle int) bool {
	return rs.refusedAt[res] == int32(cycle)+1
}

// tryPlace checks and reserves res at the cycle, and notes a refusal
// for refused.
func (rs *resources) tryPlace(res resource, cycle int) bool {
	rs.growTo(cycle)
	if rs.reserve(res, cycle) {
		return true
	}
	rs.refusedAt[res] = int32(cycle) + 1
	return false
}

// reserve takes res at the cycle, if one is free.
func (rs *resources) reserve(res resource, cycle int) bool {
	k := &rs.k
	c := int(res >> resKindBits)
	row := cycle * rs.nc
	switch machine.Class(res & (1<<resKindBits - 1)) {
	case machine.ClassXMov:
		if int(rs.alu[row+c]) >= k.Cluster[machine.ALU] || int(rs.bus[cycle]) >= k.Machine[machine.Bus] {
			return false
		}
		rs.alu[row+c]++
		rs.bus[cycle]++
	case machine.ClassMul:
		if int(rs.alu[row+c]) >= k.Cluster[machine.ALU] || int(rs.mul[row+c]) >= k.Cluster[machine.MUL] {
			return false
		}
		rs.alu[row+c]++
		rs.mul[row+c]++
	case machine.ClassL1:
		if int(rs.l1p[row+c]) >= k.Cluster[machine.L1] || !reservePort(rs.l1Free, cycle, k.Hold[machine.L1]) {
			return false
		}
		rs.l1p[row+c]++
	case machine.ClassL2:
		if int(rs.l2p[row+c]) >= k.Cluster[machine.L2] || !reservePort(rs.l2Free, cycle, k.Hold[machine.L2]) {
			return false
		}
		rs.l2p[row+c]++
	case machine.ClassCU:
		if int(rs.cu[row+c]) >= k.Cluster[machine.CU] {
			return false
		}
		rs.cu[row+c]++
	case machine.ClassBr:
		if int(rs.br[cycle]) >= k.Machine[machine.Br] {
			return false
		}
		rs.br[cycle]++
	case machine.ClassALU:
		if int(rs.alu[row+c]) >= k.Cluster[machine.ALU] {
			return false
		}
		rs.alu[row+c]++
	}
	return true
}

// reservePort holds the first free port of pool, a memory level's port
// free times, from the cycle for hold cycles, if one is free.
func reservePort(pool []int, cycle, hold int) bool {
	for i, free := range pool {
		if free <= cycle {
			pool[i] = cycle + hold
			return true
		}
	}
	return false
}

// regBlame is one sparse blame contribution: register r occupied a
// saturated cluster through n of a block's pressure-stuck cycles.
type regBlame struct {
	r ir.Reg
	n int32
}

// pressure tracks exact per-cluster live-value counts as the schedule
// is built. All state except the peak, which is the block's, lives in
// the Scratch arena.
type pressure struct {
	cap        int // per-cluster live-value budget
	live       []int
	peak       []int
	isLive     []bool
	remaining  []int32 // uses left within the block
	immortal   []bool
	regCluster []int

	// What placing a candidate would do to its cluster's count is kept
	// in its record (cand.delta) rather than worked out from its
	// arguments on every visit. It depends on two facts about a
	// register that flip a handful of times per block: whether it is
	// live (a definition of a live register makes no new value), and
	// whether it is dying — live with exactly one use left, so that use
	// frees it. deps chains, per register, the records those facts
	// enter: depHead[r] is 1 + the newest entry of deps for r, and an
	// entry names a record's rank, doubled, plus 1 when the record
	// defines r rather than reads it.
	cands   []cand
	depHead []int32
	deps    []depLink

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

// depLink is one entry of pressure.deps; next chains the register's
// earlier entries (1 + index into deps).
type depLink struct{ rec, next int32 }

// init sets up the block's pressure state and fills in the pressure
// half (cd, delta) of cands, the block's candidate records, which stand
// at rank[i] for instruction i.
func (p *pressure) init(f *ir.Func, b *ir.Block, arch machine.Arch, pl *Placement, lv *opt.Liveness, cap int, rank []int32, cands []cand, peak []int, sc *Scratch) {
	n := f.NumRegs()
	p.cap = cap
	p.live = grow(&sc.live, arch.Clusters)
	p.peak = peak
	p.isLive = grow(&sc.isLive, n)
	p.remaining = grow(&sc.remaining, n)
	p.immortal = grow(&sc.immortal, n)
	p.stalls = grow(&sc.stalls, arch.Clusters)
	p.since = grow(&sc.since, n)
	p.blame = sc.blameOut[:0]
	p.regCluster = pl.RegCluster
	p.cands = cands
	p.depHead = grow(&sc.depHead, n)
	p.deps = sc.deps[:0]
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
	link := func(r ir.Reg, rec int32) {
		p.deps = append(p.deps, depLink{rec, p.depHead[r]})
		p.depHead[r] = int32(len(p.deps))
	}
	for i, in := range b.Instrs {
		k := &cands[rank[i]]
		if !in.Op.HasDest() {
			k.cd = -1
			continue
		}
		cd := p.clusterOf(in.Dest)
		k.cd = int8(cd)
		link(in.Dest, 2*rank[i]+1)
		if !p.isLive[in.Dest] {
			k.delta++
		}
		for ai, a := range in.Args {
			if !a.IsReg() || a.Reg == in.Dest || p.immortal[a.Reg] ||
				p.clusterOf(a.Reg) != cd || dupArg(in.Args[:ai], a.Reg) {
				continue
			}
			link(a.Reg, 2*rank[i])
			if p.dying(a.Reg) {
				k.delta--
			}
		}
	}
	sc.deps = p.deps[:0]
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

// wouldExceed reports whether placing k, which has a destination, now
// pushes its destination cluster past the budget, accounting for
// argument deaths.
func (p *pressure) wouldExceed(k *cand) bool {
	v := p.live[k.cd] + int(k.delta)
	if v > p.maxChecked {
		p.maxChecked = v
	}
	if v > p.cap {
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

// shift adds d to the delta of every record r's chain names with the
// given role (1: defines r, 0: reads it).
func (p *pressure) shift(r ir.Reg, role int32, d int16) {
	for e := p.depHead[r]; e != 0; e = p.deps[e-1].next {
		if rec := p.deps[e-1].rec; rec&1 == role {
			p.cands[rec>>1].delta += d
		}
	}
}

// dying reports whether r is live with exactly one use left: that use
// frees it.
func (p *pressure) dying(r ir.Reg) bool {
	return p.isLive[r] && p.remaining[r] == 1
}

// sync brings the deltas of r's readers up to date after its liveness
// or use count changed: was is what dying(r) said before.
func (p *pressure) sync(r ir.Reg, was bool) {
	switch now := p.dying(r); {
	case now && !was:
		p.shift(r, 0, -1)
	case was && !now:
		p.shift(r, 0, +1)
	}
}

// place updates liveness state for a placed instruction. Uses are
// counted down per argument occurrence but a death is looked for at a
// register's first occurrence only, so a register whose last reader
// names it twice is never seen to die (pinned, not fixed: see
// TestRepeatedOperandNeverDies).
func (p *pressure) place(in *ir.Instr) {
	for ai, a := range in.Args {
		if !a.IsReg() {
			continue
		}
		was := p.dying(a.Reg)
		p.remaining[a.Reg]--
		if !dupArg(in.Args[:ai], a.Reg) &&
			p.remaining[a.Reg] <= 0 && !p.immortal[a.Reg] && p.isLive[a.Reg] {
			p.isLive[a.Reg] = false
			c := p.clusterOf(a.Reg)
			p.live[c]--
			p.settle(a.Reg, c)
			p.shift(a.Reg, 1, +1) // its next definition makes a new value
		}
		p.sync(a.Reg, was)
	}
	if in.Op.HasDest() && !p.isLive[in.Dest] {
		p.isLive[in.Dest] = true
		cd := p.clusterOf(in.Dest)
		p.since[in.Dest] = p.stalls[cd]
		p.live[cd]++
		if p.live[cd] > p.peak[cd] {
			p.peak[cd] = p.live[cd]
		}
		p.shift(in.Dest, 1, -1)
		p.sync(in.Dest, false)
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

// scheduleBlock list-schedules one block into sb, b's empty schedule
// (newBlock, roundMem.block). The second result is the block's sparse
// blame (see pressure.finish), and sc.issued lists the position in b of
// the instruction each op issues; both are valid until the next call
// through the same Scratch.
func scheduleBlock(f *ir.Func, b *ir.Block, arch machine.Arch, pl *Placement, lv *opt.Liveness, cap int, inOrder bool, sk *ddg.Skeleton, sc *Scratch, sb *vliw.Block) (schedCert, []regBlame, error) {
	obs.GetCounter("sched.blocks_scheduled").Inc()
	var cert schedCert
	ins := b.Instrs
	n := len(ins)
	issued := sc.issued[:0]
	if n == 0 {
		sc.issued = issued
		return cert, nil, nil
	}

	unschedPreds := grow(&sc.unschedPreds, n)
	var ready readySet
	ready.init(sc, sk.Heights, inOrder)
	rank := ready.rank
	for i, np := range sk.NPreds {
		unschedPreds[i] = np
		if np == 0 {
			ready.add(rank[i])
		}
	}
	cands := grow(&sc.cands, n)
	rs := &sc.res
	rs.reset(arch)
	for i, in := range ins {
		cands[rank[i]].res = classify(in, pl)
	}
	var pr pressure
	pr.init(f, b, arch, pl, lv, cap, rank, cands, sb.SchedPeak, sc)
	placed := 0
	cycle := 0
	last := 0
	cooloff := 0 // cycles to wait after a forced placement before forcing again
	maxCycles := 64*n + 4096
	visits := 0 // ready-set candidates visited, over all cycles

	emit := func(r int32) {
		i := ready.order[r]
		in := ins[i]
		pr.place(in)
		ready.remove(r)
		if cycle > last {
			last = cycle
		}
		sb.Ops = append(sb.Ops, vliw.Op{
			Instr:      in,
			Cycle:      int32(cycle),
			Cluster:    int16(pl.Cluster(in)),
			SrcCluster: int16(pl.SrcCluster(in)),
		})
		issued = append(issued, i)
		placed++
		for _, e := range sk.Succs(int(i)) {
			to := rank[e.To]
			if t := int32(cycle) + e.MinDelta; t > cands[to].earliest {
				cands[to].earliest = t
			}
			unschedPreds[e.To]--
			if unschedPreds[e.To] == 0 {
				ready.add(to)
			}
		}
	}

	// Scanning the whole ready set every cycle is quadratic; after
	// enough candidates fail, the rest of the set almost certainly
	// cannot issue this cycle either.
	scanStart := 8 * (arch.ALUs + arch.L2Ports + arch.Clusters + 4)
	for placed < n {
		if cycle > maxCycles {
			return cert, nil, fmt.Errorf("schedule did not converge after %d cycles (%d/%d ops placed)", cycle, placed, n)
		}
		placedThisCycle := 0
		pressureDeferrals := 0
		scanBudget := scanStart
		pos := ready.begin()
		for scanBudget > 0 {
			r := ready.visit(&pos)
			if r < 0 {
				break
			}
			scanBudget--
			k := &cands[r]
			if int(k.earliest) > cycle {
				continue
			}
			if k.cd >= 0 && pr.wouldExceed(k) {
				pressureDeferrals++
				continue
			}
			if rs.refused(k.res, cycle) || !rs.tryPlace(k.res, cycle) {
				continue
			}
			emit(r)
			placedThisCycle++
			ready.placed(&pos, r)
		}
		pops := scanStart - scanBudget
		visits += pops
		if pops > cert.maxScan {
			cert.maxScan = pops
		}
		if scanBudget == 0 && !cert.scanBound && ready.pending(pos) {
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
			// Nothing was placed, so the ready set is what the scan
			// walked: the candidates it found issuable (operands ready)
			// but could not place are the first pops ranks of it with
			// earliest <= cycle. Blame the values occupying the
			// saturated clusters: they are what a pressure-aware
			// compiler would spill.
			stuck := grow(&sc.stuck, arch.Clusters)
			best, bestRank := int32(-1), int32(-1)
			bestEnables := -1
			pos := ready.begin()
			for left := pops; left > 0; left-- {
				r := ready.visit(&pos)
				k := &cands[r]
				if int(k.earliest) > cycle {
					continue
				}
				if k.cd >= 0 && !stuck[k.cd] {
					stuck[k.cd] = true
					pr.stall(int(k.cd))
				}
				i := ready.order[r]
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
				if enables > bestEnables || (enables == bestEnables && i < best) {
					best, bestRank, bestEnables = i, r, enables
				}
			}
			if best >= 0 && rs.tryPlace(cands[bestRank].res, cycle) {
				sb.Forced++
				// Let the admitted value's consumer catch up (producer
				// latency) before forcing more pressure in.
				cooloff = 1 + machine.Latency(ins[best], arch)
				emit(bestRank)
			}
		}
		cycle++
	}
	obs.GetCounter("sched.scan_visits").Add(int64(visits))
	obs.GetCounter("sched.ops_placed").Add(int64(placed))
	sc.issued = issued
	sb.Len = last + 1
	cert.maxPressure = pr.maxChecked
	cert.pressureBound = pr.bound
	return cert, pr.finish(b, sc), nil
}
