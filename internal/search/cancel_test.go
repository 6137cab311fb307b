package search

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"customfit/internal/machine"
)

// TestCtxVariantsMatchLegacy: a context that can end but never does
// must not change a result — every strategy under a live cancellable
// context is bit-identical to its run under context.Background(); the
// context checks may never touch the RNG stream or the visit order.
func TestCtxVariantsMatchLegacy(t *testing.T) {
	space := SubLattice()
	obj := costSpeedupObjective(10)
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	const seed = 7

	same := func(name string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s under a cancellable context %+v != under Background %+v", name, got, want)
		}
	}
	same("ExhaustiveCtx", must(ExhaustiveCtx(ctx, space, obj, nil)), must(ExhaustiveCtx(bg, space, obj, nil)))
	same("HillClimbCtx", must(HillClimbCtx(ctx, space, obj, 4, seed, nil)), must(HillClimbCtx(bg, space, obj, 4, seed, nil)))
	same("AnnealCtx", must(AnnealCtx(ctx, space, obj, 400, seed)), must(AnnealCtx(bg, space, obj, 400, seed)))
	same("GeneticCtx", must(GeneticCtx(ctx, space, obj, 24, 12, seed)), must(GeneticCtx(bg, space, obj, 24, 12, seed)))
	same("CompareCtx", must(CompareCtx(ctx, space, obj, nil, seed)), must(CompareCtx(bg, space, obj, nil, seed)))
}

// TestCtxVariantsCancelPromptly: every strategy must stop quickly once
// the context ends, returning an error that wraps context.Canceled.
func TestCtxVariantsCancelPromptly(t *testing.T) {
	space := SubLattice()
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel after a handful of objective calls, mid-strategy.
	calls := 0
	obj := func(a machine.Arch) float64 {
		calls++
		if calls == 5 {
			cancel()
		}
		return costSpeedupObjective(10)(a)
	}
	type run struct {
		name string
		fn   func() error
	}
	runs := []run{
		{"Exhaustive", func() error { _, err := ExhaustiveCtx(ctx, space, obj, nil); return err }},
		{"HillClimb", func() error { _, err := HillClimbCtx(ctx, space, obj, 4, 1, nil); return err }},
		{"Anneal", func() error { _, err := AnnealCtx(ctx, space, obj, 10_000, 1); return err }},
		{"Genetic", func() error { _, err := GeneticCtx(ctx, space, obj, 32, 64, 1); return err }},
		{"Compare", func() error { _, err := CompareCtx(ctx, space, obj, nil, 1); return err }},
	}
	for _, r := range runs {
		calls = 0
		ctx, cancel = context.WithCancel(context.Background())
		err := r.fn()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error %v does not wrap context.Canceled", r.name, err)
		}
		// The check granularity is per neighbor/step/generation, so a
		// strategy may finish its current unit; far below a full run.
		if calls > 200 {
			t.Errorf("%s: %d objective calls after cancellation at 5 — not prompt", r.name, calls)
		}
	}
}
