package bench

import (
	"context"
	"testing"

	"repro/internal/explore"
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
