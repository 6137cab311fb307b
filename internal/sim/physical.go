package sim

import (
	"context"
	"fmt"

	"customfit/internal/ir"
	"customfit/internal/vliw"
)

// RunPhysical executes prog through the register allocator's physical
// assignment: every virtual register access is mapped to its assigned
// physical register in its home cluster's register file. Two live
// ranges sharing a physical register by mistake corrupt each other's
// values here, so bit-equality of RunPhysical output with the golden
// model is an end-to-end proof of the allocation — something the
// structural checks in regalloc cannot give.
//
// Requires a program whose allocation fit (PhysAssign populated). It is
// Run in every other respect: same checks, same errors, same Stats.
func RunPhysical(prog *vliw.Program, env *ir.Env) (*Stats, error) {
	return run(context.Background(), prog, env, true)
}

// registerSlots is the mapping of virtual registers to register-file
// slots a run decodes with, and the file's size. Run's is the identity;
// RunPhysical's lays the clusters' files end to end.
func registerSlots(prog *vliw.Program, physical bool) (slot func(ir.Reg) (int32, error), nslots int, err error) {
	if !physical {
		return func(r ir.Reg) (int32, error) { return int32(r), nil }, prog.F.NumRegs(), nil
	}
	if prog.PhysAssign == nil {
		return nil, 0, fmt.Errorf("program has no physical assignment")
	}
	rc := prog.Arch.RegsPC()
	slot = func(r ir.Reg) (int32, error) {
		c := 0
		if int(r) < len(prog.RegCluster) {
			c = prog.RegCluster[r]
		}
		if int(r) >= len(prog.PhysAssign) || prog.PhysAssign[r] < 0 {
			return 0, fmt.Errorf("virtual register v%d has no physical assignment", r)
		}
		p := prog.PhysAssign[r]
		if p >= rc {
			return 0, fmt.Errorf("v%d assigned phys %d beyond file size %d", r, p, rc)
		}
		if c < 0 || c >= prog.Arch.Clusters {
			return 0, fmt.Errorf("v%d homed in cluster %d of %d", r, c, prog.Arch.Clusters)
		}
		return int32(c*rc + p), nil
	}
	return slot, prog.Arch.Clusters * rc, nil
}
