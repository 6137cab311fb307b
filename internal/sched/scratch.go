package sched

import (
	"customfit/internal/ddg"
	"customfit/internal/idle"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/regalloc"
	"customfit/internal/vliw"
)

// Scratch is a per-worker arena of reusable partitioning, scheduling and
// allocation buffers. One compile's transient state — the partitioner's
// register tables, each block's dependence skeleton, ready sets,
// per-cycle resource tables, liveness bitsets, the allocator's segment
// builders — dominates the backend's allocation profile when the
// explorer runs hundreds of compiles per architecture class, so workers
// keep one Scratch each and thread it through the compile entries.
//
// The ownership rule: whatever a spill round builds and throws away
// lives here, and is valid only until the round's next use of the same
// buffer (a skeleton until the next block's, the partitioner's tables
// until the next block, a spill round's program until the next round).
// Instructions follow ir.Slab's rule: a slab is either owned by the
// function that points into it or it is a round buffer whose
// instructions die with the round. Round 1 starts from the partition
// class, whose instructions are the class's own, or the kernel's where
// the class copies nothing (the Result, its vliw.Ops and the class point
// at them), and the skeletons a class keeps
// are owned copies (ddg.Builder.BuildSet), because workers share them.
// Every later round builds into round (roundMem) — the partitioned
// clone's instructions in a round buffer, its blocks, liveness, block
// schedules and allocation — and the spill loop's working copy with the
// reloads and stores each round adds lives in work (workMem) for the
// compile. When a round fits, its Result stays in the arena for a
// caller that brought one to CompilePreparedDelta (valid until the next
// compile through the same Scratch, as round 1's is), and every other
// entry copies out what the Result keeps, once and at its exact size
// (roundMem.own). The arena keeps its round memory either way.
//
// A Scratch is NOT safe for concurrent use; share Prepared kernels
// across workers, never a Scratch.
//
// Arenas outlive the run that grew them: a worker that comes and goes
// (an exploration's, a compile or an unroll sweep handed no arena, a
// Validate) takes its Scratch
// with GetScratch and hands it back with PutScratch, so the next
// exploration's workers, and the next request's compile, start on grown
// tables. An idle arena pins nothing: PutScratch drops every pointer
// into the kernel and the program it last worked on (see release),
// through the capacity of the round memory too.
type Scratch struct {
	// the dependence skeleton of the block being scheduled, when no
	// cached one applies: rebuilt block after block, round after round
	skel ddg.Builder

	// the partitioner's tables (see partScratch)
	part partScratch

	// per-block scheduler state (sized to the block's op count): the
	// candidate records stand in rank order
	unschedPreds []int32
	cands        []cand

	// the ready set (see readySet): priority ranks, their inverse, the
	// counting sort's bucket starts and the bitset over ranks
	rank      []int32
	order     []int32
	rankStart []int32
	readyBits []uint64

	// per-function pressure state (sized to the register count, or to
	// the cluster count for live/stuck/stalls), and the per-block chains
	// from a register to the candidate records it enters
	isLive    []bool
	immortal  []bool
	remaining []int32
	since     []int32
	depHead   []int32
	deps      []depLink
	live      []int
	stuck     []bool
	stalls    []int32
	blameOut  []regBlame

	// flattened per-cycle resource tables
	res resources

	// issued lists, for the block scheduleBlock last built, the
	// position in the block of the instruction each op issues
	issued []int32

	// spill-loop state (see spillLoop): which registers earlier rounds
	// of this compile spilled, and the round's candidate lists
	alreadySpilled []bool
	victims        []ir.Reg
	byBlame        []blamed

	// the memory of the spill rounds after the first, and of the spill
	// loop's working copy
	round roundMem
	work  workMem

	// Round 1's program assembly arenas (see compile): the
	// block-pointer table, the entry-id table, the per-block blame
	// lists, the blame table they add up to when the attempt continues
	// into the spill loop, and the vliw.Program shell are all owned by
	// the Scratch, so a fully cache-hit neighbor re-evaluation assembles
	// its Result without heap allocation. A Result produced through
	// these arenas is valid only until the next compile that uses the
	// same Scratch; one that owns its memory copies the shell out.
	blame      []int
	progBlocks []*vliw.Block
	entryIDs   []uint32
	entryBlame [][]regBlame
	prog       vliw.Program
	result     Result

	// Validate's tables (see validateBlock): where the schedule put each
	// instruction, the same by position in the block being checked, what
	// each cluster issues per cycle, and when each memory port is free.
	issueOf  map[*ir.Instr]issue
	cycles   []int
	charges  []machine.Charges
	portFree []int

	// RA is the register allocator's scratch arena, threaded through
	// regalloc.AllocateWith by the compile driver.
	RA *regalloc.Scratch
}

// NewScratch returns an empty scratch arena. Buffers grow on first use
// and are retained across compiles.
func NewScratch() *Scratch {
	return &Scratch{RA: regalloc.NewScratch()}
}

// scratches holds the arenas nobody is compiling with. A list with a
// rule of its own, not a sync.Pool: what an idle process keeps is for
// the process's use of it to decide — as many arenas as can be at work
// at once, each for as long as somebody comes back for it within a few
// collections (idle.List). The collector's rule, dropped after two
// collections unused, loses the arena of every one-shot request, which
// allocates enough to collect more than once; and a pool's Put is
// private to one P, so an exploration's second worker found its arena
// only when the Ps lined up.
var scratches = idle.New("sched", NewScratch)

// GetScratch returns an arena no one else is using: one an earlier
// compile stream grew, when there is one.
func GetScratch() *Scratch { return scratches.Get() }

// PutScratch gives sc up for reuse. The caller must be done with every
// Result that lives in sc's arenas (see CompilePreparedDelta).
func PutScratch(sc *Scratch) {
	sc.release()
	scratches.Put(sc)
}

// release drops every pointer the arena holds into what it last worked
// on — instructions, blocks, memory references, the op catalog, the
// delta path's program shell — through the capacity of the lists that
// carry them, so an idle arena keeps its own tables alive and nothing of
// a finished request.
func (sc *Scratch) release() {
	sc.skel.Forget()
	sc.part.lv.Forget()
	idle.Wipe(sc.part.pending)
	idle.Wipe(sc.part.out)
	sc.round.forget()
	sc.work.forget()
	idle.Wipe(sc.progBlocks)
	idle.Wipe(sc.entryBlame)
	sc.prog, sc.result = vliw.Program{}, Result{}
	clear(sc.issueOf)
}

// grow returns *buf resized to n entries with every entry zeroed,
// reusing capacity, and stores the resized slice back.
func grow[T any](buf *[]T, n int) []T {
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
