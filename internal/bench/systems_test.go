package bench

import (
	"cmp"
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
		states, err := explore.New(explore.Options{Workers: 1, Limit: explore.DefaultLimit}).Reach(context.Background(), a)
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
// smoke size: a sorted Visit yields exactly the (action, successor
// key) sequence of the all-actions sweep `for act in sorted acts(A) {
// Next(s, act) }`, and an unsorted Visit the same multiset.
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
		sorted, unsorted := ioa.NewWalk(a, true), ioa.NewWalk(a, false)
		visit := func(st *ioa.Walk, s ioa.State) (got []edge) {
			st.Visit(s, func(nxt ioa.State) bool {
				got = append(got, edge{st.Act, nxt.Key()})
				return true
			})
			return got
		}
		byEdge := func(x, y edge) int {
			return cmp.Or(cmp.Compare(x.act, y.act), cmp.Compare(x.key, y.key))
		}
		for _, s := range states {
			var want []edge
			for _, act := range acts {
				for _, nxt := range ioa.Successors(a, s, act) {
					want = append(want, edge{act, nxt.Key()})
				}
			}
			if got := visit(sorted, s); !slices.Equal(got, want) {
				t.Fatalf("%s: sorted Visit at %q:\n got %v\nwant %v", sys.Name, s.Key(), got, want)
			}
			got := visit(unsorted, s)
			slices.SortFunc(got, byEdge)
			slices.SortStableFunc(want, byEdge)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: unsorted Visit at %q yields another multiset:\n got %v\nwant %v", sys.Name, s.Key(), got, want)
			}
		}
	}
}
