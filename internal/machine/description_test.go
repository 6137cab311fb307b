package machine

import (
	"strings"
	"testing"

	"customfit/internal/ir"
)

// TestDescriptionRows pins the machine description row by row. The
// expected rows are written by hand from DESIGN.md §4 (paper Table 4),
// not derived from the table: the scheduler, the validator, the bound,
// the delta cache and the resource profile all read that one table, so
// this is the oracle that keeps it right.
func TestDescriptionRows(t *testing.T) {
	type row struct {
		class   Class
		charges Charges
		lat     [2]int // result latency at l2 = 2 and at l2 = 8
		occ     [2]int // port occupancy at l2 = 2 and at l2 = 8
	}
	var (
		none = row{ClassNone, Charges{}, [2]int{1, 1}, [2]int{0, 0}}
		alu  = row{ClassALU, Charges{ALU: 1}, [2]int{1, 1}, [2]int{0, 0}}
		mul  = row{ClassMul, Charges{ALU: 1, MUL: 1}, [2]int{2, 2}, [2]int{0, 0}}
		xmov = row{ClassXMov, Charges{ALU: 1, Bus: 1}, [2]int{2, 2}, [2]int{0, 0}}
		br   = row{ClassBr, Charges{Br: 1}, [2]int{1, 1}, [2]int{0, 0}}
		// A fused op's latency is its spec's, filled in below.
		cu = row{ClassCU, Charges{CU: 1}, [2]int{}, [2]int{0, 0}}
	)
	// Per opcode, the row for an L1 and for an L2 operand.
	want := map[ir.Op][2]row{
		ir.OpNop:    {none, none},
		ir.OpAdd:    {alu, alu},
		ir.OpSub:    {alu, alu},
		ir.OpShl:    {alu, alu},
		ir.OpShrA:   {alu, alu},
		ir.OpShrU:   {alu, alu},
		ir.OpAnd:    {alu, alu},
		ir.OpOr:     {alu, alu},
		ir.OpXor:    {alu, alu},
		ir.OpCmpEQ:  {alu, alu},
		ir.OpCmpNE:  {alu, alu},
		ir.OpCmpLT:  {alu, alu},
		ir.OpCmpLE:  {alu, alu},
		ir.OpCmpGT:  {alu, alu},
		ir.OpCmpGE:  {alu, alu},
		ir.OpSelect: {alu, alu},
		ir.OpMin:    {alu, alu},
		ir.OpMax:    {alu, alu},
		ir.OpMov:    {alu, alu},
		ir.OpXMov:   {xmov, xmov},
		ir.OpMul:    {mul, mul},
		ir.OpLoad: {
			{ClassL1, Charges{L1: 1}, [2]int{3, 3}, [2]int{1, 1}},
			{ClassL2, Charges{L2: 1}, [2]int{2, 8}, [2]int{2, 8}},
		},
		ir.OpStore: {
			{ClassL1, Charges{L1: 1}, [2]int{1, 1}, [2]int{1, 1}},
			{ClassL2, Charges{L2: 1}, [2]int{1, 1}, [2]int{2, 8}},
		},
		ir.OpBr:    {br, br},
		ir.OpCBr:   {br, br},
		ir.OpRet:   {br, br},
		ir.OpFused: {cu, cu},
	}

	archs := [2]Arch{Baseline, Baseline}
	archs[0].L2Lat, archs[1].L2Lat = 2, 8
	for o := 0; o < 256; o++ {
		op := ir.Op(o)
		rows, ok := want[op]
		if named := !strings.HasPrefix(op.String(), "Op("); named != ok {
			t.Errorf("%s: named by ir %v, expected row %v: every opcode needs a row here", op, named, ok)
			continue
		} else if !named {
			continue
		}
		if o >= len(desc) {
			t.Errorf("%s has no row in the machine description", op)
			continue
		}
		for _, specLat := range []int{1, 3} {
			for space, w := range rows {
				if op == ir.OpFused {
					w.lat = [2]int{specLat, specLat}
				}
				mems := []*ir.MemRef{{Space: ir.Space(space)}}
				if !op.IsMem() {
					mems = append(mems, nil) // as every instruction but a load or store comes
				}
				for _, mem := range mems {
					in := &ir.Instr{Op: op, Mem: mem, Fused: &ir.FusedSpec{Lat: specLat}}
					got := row{class: ClassOf(in), charges: ClassOf(in).Charges()}
					for i, a := range archs {
						got.lat[i], got.occ[i] = Latency(in, a), Occupancy(in, a)
					}
					if got != w {
						t.Errorf("%s @%v, spec latency %d: description says %+v, want %+v", op, mem, specLat, got, w)
					}
				}
			}
		}
	}
}

// TestCapacity pins what a cycle holds on three machines, written by
// hand from DESIGN.md §4: the baseline; (4 1 64 1 2 2), whose two
// clusters each get a multiplier though the machine has one MUL; and
// (16 8 256 4 4 16) with custom ops, whose eight MULs give all sixteen
// clusters a multiplier, whose eight buses are capped at MaxBuses, and
// whose four L2 ports give every cluster a path.
func TestCapacity(t *testing.T) {
	set, err := ParseOpCatalog([]string{"mac/3/2:mul $0 $1;add %0 $2"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		arch Arch
		want Capacity
	}{
		{Baseline, Capacity{
			Cluster: Charges{ALU: 1, MUL: 1, Bus: 0, L1: 1, L2: 1, CU: 0, Br: 1},
			Machine: Charges{ALU: 1, MUL: 1, Bus: 0, L1: 1, L2: 1, CU: 0, Br: 1},
			Hold:    Charges{ALU: 1, MUL: 1, Bus: 1, L1: 1, L2: 8, CU: 1, Br: 1},
		}},
		{Arch{ALUs: 4, MULs: 1, Regs: 64, L2Ports: 1, L2Lat: 2, Clusters: 2}, Capacity{
			Cluster: Charges{ALU: 2, MUL: 1, Bus: 1, L1: 1, L2: 1, CU: 0, Br: 1},
			Machine: Charges{ALU: 4, MUL: 2, Bus: 1, L1: 1, L2: 1, CU: 0, Br: 1},
			Hold:    Charges{ALU: 1, MUL: 1, Bus: 1, L1: 1, L2: 2, CU: 1, Br: 1},
		}},
		{Arch{ALUs: 16, MULs: 8, Regs: 256, L2Ports: 4, L2Lat: 4, Clusters: 16}.WithOps(set, set.FullMask()), Capacity{
			Cluster: Charges{ALU: 1, MUL: 1, Bus: 4, L1: 1, L2: 1, CU: 1, Br: 1},
			Machine: Charges{ALU: 16, MUL: 16, Bus: 4, L1: 1, L2: 4, CU: 16, Br: 1},
			Hold:    Charges{ALU: 1, MUL: 1, Bus: 1, L1: 1, L2: 4, CU: 1, Br: 1},
		}},
	} {
		if got := c.arch.Capacity(); got != c.want {
			t.Errorf("%v holds %+v, want %+v", c.arch, got, c.want)
		}
	}
}
