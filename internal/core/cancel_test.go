package core

import (
	"context"
	"errors"
	"testing"

	"customfit/internal/machine"
)

// TestRunCtxCancelled: a simulation stopped by its context reports
// ErrCancelled (what cfp-serve records as a cancelled job, not a failed
// one) and keeps the cause.
func TestRunCtxCancelled(t *testing.T) {
	k, err := ParseKernel(coreSrc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := k.Compile(machine.Baseline, 1)
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("client went away")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	mem := map[string][]int32{"in": make([]int32, 8), "out": make([]int32, 8)}
	_, err = c.RunCtx(ctx, []int32{8}, mem)
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, cause) {
		t.Errorf("err = %v, want ErrCancelled wrapping the cause", err)
	}
}
