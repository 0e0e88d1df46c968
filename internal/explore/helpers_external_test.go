package explore_test

import (
	"context"

	"repro/internal/explore"
	"repro/internal/ioa"
)

// Shorthands for the batteries that run Reach and CheckInvariant at
// several worker counts.

func parallelReach(a ioa.Automaton, opts explore.Options) ([]ioa.State, error) {
	return explore.New(opts).Reach(context.Background(), a)
}

func parallelCheck(a ioa.Automaton, opts explore.Options, pred func(ioa.State) bool) (*explore.Violation, error) {
	return explore.New(opts).CheckInvariant(context.Background(), a, pred)
}
