package bench

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/explore"
	"repro/internal/ioa"
)

// TestExploreSystemLevels: the three levels build and their closed
// systems explore to stable, strictly growing state-space sizes.
func TestExploreSystemLevels(t *testing.T) {
	sizes := make([]int, 0, 3)
	for level := 1; level <= 3; level++ {
		a, err := ExploreSystem(level, 2)
		if err != nil {
			t.Fatal(err)
		}
		states, err := explore.New(explore.Options{Limit: explore.DefaultLimit}).Reach(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(states))
	}
	if !(sizes[0] <= sizes[1] && sizes[1] <= sizes[2]) {
		t.Fatalf("levels should not shrink in state count: %v", sizes)
	}
}

// TestStepVisitMatchesAllActionsSweep pins ioa.Walk against the
// seed explorer's successor enumeration on every catalogue system at
// smoke size: Visit yields exactly the (action, successor key) sequence
// of the all-actions sweep `for act in sorted acts(A) { Next(s, act) }`.
func TestStepVisitMatchesAllActionsSweep(t *testing.T) {
	type edge struct {
		act ioa.Action
		key string
	}
	for _, sys := range Systems() {
		a, err := sys.Build(Params{Users: 2, UsersSet: true, GridBase: 3, GridDigits: 3})
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		// A truncated reach is as good a sample of states as a whole one.
		states, err := explore.ReferenceReach(a, 500)
		if err != nil && !errors.Is(err, explore.ErrLimit) {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		acts := a.Sig().Acts().Sorted()
		step := ioa.NewWalk(a)
		for _, s := range states {
			var want, got []edge
			for _, act := range acts {
				for _, nxt := range ioa.Successors(a, s, act) {
					want = append(want, edge{act, nxt.Key()})
				}
			}
			step.Visit(s, func(nxt ioa.State) bool {
				got = append(got, edge{step.Act, nxt.Key()})
				return true
			})
			if !slices.Equal(got, want) {
				t.Fatalf("%s: Visit at %q:\n got %v\nwant %v", sys.Name, s.Key(), got, want)
			}
		}
	}
}
