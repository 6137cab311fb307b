package dse

import (
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

// appendKey appends to b the signature's rendering as the stable string
// that, combined with the kernel-class hash, content-addresses a
// persistent cache entry (see internal/evcache and Evaluator.Cache):
// c<clusters>.a<ALUs>.m<MULs>.r<regs>.p<L2 ports>.l<L2 latency>, the
// per-cluster values, then ".mm" and ".ops{<key>}" where they apply.
// Every warm evaluation renders one, so it is spelled without fmt.
func (s archSig) appendKey(b []byte) []byte {
	b = strconv.AppendInt(append(b, 'c'), int64(s.Clusters), 10)
	b = strconv.AppendInt(append(b, ".a"...), int64(s.ALUsPC), 10)
	b = strconv.AppendInt(append(b, ".m"...), int64(s.MULsPC), 10)
	b = strconv.AppendInt(append(b, ".r"...), int64(s.RegsPC), 10)
	b = strconv.AppendInt(append(b, ".p"...), int64(s.L2Ports), 10)
	b = strconv.AppendInt(append(b, ".l"...), int64(s.L2Lat), 10)
	if s.MinMax {
		b = append(b, ".mm"...)
	}
	if s.OpsKey != "" {
		b = append(append(append(b, ".ops{"...), s.OpsKey...), '}')
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
	return string(sigOf(a).appendKey(buf[:0]))
}

// SignatureClasses groups archs by backend signature: the classes in
// first-seen order, each the ascending indices of its members in
// archs. Members of a class are compiled identically (see archSig), so
// anything that partitions the design space across evaluators — the
// distributed coordinator in internal/dist — should keep each class in
// one partition: each evaluator's cache then deduplicates the class's
// backend work exactly as a single local run would.
func SignatureClasses(archs []machine.Arch) [][]int {
	var classes [][]int
	at := make(map[archSig]int, len(archs))
	for i, a := range archs {
		s := sigOf(a)
		ci, ok := at[s]
		if !ok {
			ci = len(classes)
			at[s] = ci
			classes = append(classes, nil)
		}
		classes[ci] = append(classes[ci], i)
	}
	return classes
}

// sigOf maps an architecture to its backend signature.
func sigOf(a machine.Arch) archSig {
	return archSig{
		Clusters: a.Clusters,
		ALUsPC:   a.ALUsPC(),
		MULsPC:   a.MULsPC(),
		RegsPC:   a.RegsPC(),
		L2Ports:  a.L2Ports,
		L2Lat:    a.L2Lat,
		MinMax:   a.MinMax,
		OpsKey:   a.Ops.Key(),
	}
}
