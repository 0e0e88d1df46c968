package explore

import (
	"context"

	"repro/internal/ioa"
)

// Test-only bridges into the level-synchronized parallel engine. The
// differential and race batteries need to force the parallel path even
// at Workers: 1 (New(...).Reach routes a single worker through the
// sequential engine), so they go straight to parallelExplore here.

func ParallelReachForTest(a ioa.Automaton, opts Options) ([]ioa.State, error) {
	order, _, err := New(opts).parallelExplore(context.Background(), a, nil)
	return order, err
}

func ParallelCheckForTest(a ioa.Automaton, opts Options, pred func(ioa.State) bool) (*Violation, error) {
	_, v, err := New(opts).parallelExplore(context.Background(), a, pred)
	return v, err
}
