package mapping

import (
	"fmt"
	"testing"

	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/testseed"
)

// TestRandomTreesRefinementChain verifies h₂ and h₁ exhaustively on
// randomly shaped small instances (state spaces stay tractable with at
// most three arbiter processes).
func TestRandomTreesRefinementChain(t *testing.T) {
	if testing.Short() {
		t.Skip("state-space verification is slow")
	}
	base := testseed.Base(t)
	for i := int64(1); i <= 6; i++ {
		seed := base + i
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			nArb := 1 + int(seed%3)
			nUsers := 1 + int(seed%2)
			tr, err := graph.Random(seed, nArb, nUsers)
			if err != nil {
				t.Fatal(err)
			}
			holder := tr.NodesOf(graph.Arbiter)[int(seed)%nArb]
			c := buildChain(t, tr, holder)
			if err := c.H2.VerifyOpts(explore.Options{Limit: 3000000}); err != nil {
				t.Errorf("h2: %v", err)
			}
			if err := c.H1.VerifyOpts(explore.Options{Limit: 3000000}); err != nil {
				t.Errorf("h1: %v", err)
			}
		})
	}
}
