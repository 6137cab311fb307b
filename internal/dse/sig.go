package dse

import (
	"math/bits"
	"strconv"

	"customfit/internal/machine"
)

// archSig is the backend-relevant signature of a concrete architecture:
// the complete set of parameters the compiler backend (partition,
// schedule, allocate, spill) can observe. Two architectures with equal
// signatures are compiled identically — they differ only in datapath
// cost and in the cycle-time derate, both applied outside the backend —
// so the evaluator reuses one sweep for the whole signature class.
//
// Field inventory against the backend's reads:
//
//   - Clusters, ALUsPC, MULsPC: issue-slot model and partitioning
//     (ALUs = ALUsPC × Clusters exactly, by Arch.Validate's
//     divisibility rule, so the scheduler's scan budget is covered;
//     MULsPC's min-1 floor means total MULs may differ inside a class,
//     but the backend never reads the total, and neither does the
//     resource profile: machine.Capacity, which the scheduler, the
//     validator, the lower bound and sim.Profile read, is equal across
//     a class (TestSignatureFixesCapacity));
//   - RegsPC: the pressure throttle's budget and the allocator's
//     capacity;
//   - L2Ports, L2Lat: global memory-port occupancy and the dependence
//     latencies (L2PathsPC and Buses derive from these and Clusters);
//   - MinMax: the fusion pass of the min/max opcode repertoire;
//   - OpsKey: the custom-op rewrite pass (machine.OpConfig.Key — the
//     enabled specs' content keys, so two masks enabling the same specs
//     share a class and op-free machines keep the historical empty key).
//
// The cycle-time derate reads RegPorts = 3·ALUsPC + 2·(1 + L2PathsPC),
// which is signature-determined, so even Time is constant per class up
// to the shared derate factor.
type archSig struct {
	Clusters int
	ALUsPC   int
	MULsPC   int
	RegsPC   int
	L2Ports  int
	L2Lat    int
	MinMax   bool
	OpsKey   string
}

// appendSigKey appends to b a's signature rendered as the stable string
// that, combined with the kernel-class hash, content-addresses a
// persistent cache entry (see internal/evcache and Evaluator.Cache):
// c<clusters>.a<ALUs>.m<MULs>.r<regs>.p<L2 ports>.l<L2 latency>, the
// per-cluster values, then ".mm" and ".ops{<key>}" where they apply.
// Every warm evaluation renders one, so it is spelled without fmt, and
// the ops key is appended where it stands (machine.OpConfig.AppendKey):
// with room in b, a key costs no allocation, ops or not.
func appendSigKey(b []byte, a machine.Arch) []byte {
	s := shapeOf(a)
	b = strconv.AppendInt(append(b, 'c'), int64(s.Clusters), 10)
	b = strconv.AppendInt(append(b, ".a"...), int64(s.ALUsPC), 10)
	b = strconv.AppendInt(append(b, ".m"...), int64(s.MULsPC), 10)
	b = strconv.AppendInt(append(b, ".r"...), int64(s.RegsPC), 10)
	b = strconv.AppendInt(append(b, ".p"...), int64(s.L2Ports), 10)
	b = strconv.AppendInt(append(b, ".l"...), int64(s.L2Lat), 10)
	if s.MinMax {
		b = append(b, ".mm"...)
	}
	if !a.Ops.Empty() {
		b = append(a.Ops.AppendKey(append(b, ".ops{"...)), '}')
	}
	return b
}

// keyBuf is room for a kernel-class hash and an op-free signature key;
// a longer key moves to the heap on its own.
type keyBuf [96]byte

// SigKey returns the architecture's backend-signature key: the stable
// string identifying its signature class. Two architectures with equal
// keys are compiled identically (see archSig).
func SigKey(a machine.Arch) string {
	var buf keyBuf
	return string(appendSigKey(buf[:0], a))
}

// SignatureClasses groups archs by backend signature: the classes in
// first-seen order, each the ascending indices of its members in
// archs. Members of a class are compiled identically (see archSig), so
// anything that partitions the design space across evaluators — the
// distributed coordinator in internal/dist — should keep each class in
// one partition: each evaluator's cache then deduplicates the class's
// backend work exactly as a single local run would.
//
// The classes are sub-slices of one array, each capped at its own end
// so that appending to one copies it rather than overwriting the next.
// Grouping makes four objects whatever the number of machines, with
// custom ops or without: each machine's signature shape, computed once;
// its class id, found in an open-addressed table of the classes' first
// members; and the array, filled once the classes' sizes are counted,
// and the list of classes. The ops component is compared as the bytes
// of its key, rendered into buffers on the stack.
func SignatureClasses(archs []machine.Arch) [][]int {
	n := len(archs)
	sigs := make([]archSig, n)
	// first[h] is 1 + the first member of the class whose signature
	// probes to slot h, 0 for none; at most half the slots are taken.
	lg := bits.Len(uint(2 * n))
	work := make([]int, n+1<<lg)
	ids, first := work[:n], work[n:]
	classes := 0
	var key, repKey keyBuf
	for i, a := range archs {
		sigs[i] = shapeOf(a)
		ops := a.Ops.AppendKey(key[:0])
		h := sigs[i].hash(ops) >> (64 - lg)
		for first[h] != 0 && !sameSig(archs, sigs, first[h]-1, i, ops, repKey[:0]) {
			h = (h + 1) & (1<<lg - 1)
		}
		if first[h] == 0 {
			first[h] = i + 1
			ids[i] = classes
			classes++
		} else {
			ids[i] = ids[first[h]-1]
		}
	}
	// The array counts the classes' sizes before it holds their members.
	members := make([]int, n)
	for _, ci := range ids {
		members[ci]++
	}
	out := make([][]int, classes)
	at := 0
	for ci := range out {
		size := members[ci]
		out[ci] = members[at : at : at+size]
		at += size
	}
	for i, ci := range ids {
		out[ci] = append(out[ci], i)
	}
	return out
}

// sameSig reports whether machines j and i of archs, with signature
// shapes sigs, have one signature; ops is i's ops key, and buf room to
// render j's. The same op config is the same key, unrendered.
func sameSig(archs []machine.Arch, sigs []archSig, j, i int, ops, buf []byte) bool {
	if sigs[j] != sigs[i] {
		return false
	}
	return archs[j].Ops == archs[i].Ops || string(archs[j].Ops.AppendKey(buf)) == string(ops)
}

// hash mixes the signature shape's fields and ops, the bytes of its ops
// key, multiplicatively, for SignatureClasses' table, which indexes by
// the well-mixed high bits.
func (s archSig) hash(ops []byte) uint64 {
	const k = 0x9e3779b97f4a7c15
	h := uint64(s.Clusters)
	for _, v := range [...]int{s.ALUsPC, s.MULsPC, s.RegsPC, s.L2Ports, s.L2Lat} {
		h = (h*k ^ h>>29) + uint64(v)
	}
	if s.MinMax {
		h = (h*k ^ h>>29) + 1
	}
	for _, c := range ops {
		h = (h*k ^ h>>29) + uint64(c)
	}
	return h * k
}

// sigOf maps an architecture to its backend signature, a comparable
// value. What runs on every machine of a grid spells it in two halves
// that allocate nothing: shapeOf, and the ops key as bytes
// (machine.OpConfig.AppendKey), as appendSigKey and SignatureClasses
// do.
func sigOf(a machine.Arch) archSig {
	s := shapeOf(a)
	var buf keyBuf
	s.OpsKey = string(a.Ops.AppendKey(buf[:0]))
	return s
}

// shapeOf is a's signature without its ops component: OpsKey empty.
func shapeOf(a machine.Arch) archSig {
	return archSig{
		Clusters: a.Clusters,
		ALUsPC:   a.ALUsPC(),
		MULsPC:   a.MULsPC(),
		RegsPC:   a.RegsPC(),
		L2Ports:  a.L2Ports,
		L2Lat:    a.L2Lat,
		MinMax:   a.MinMax,
	}
}
