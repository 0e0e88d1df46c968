package bench

import (
	"context"
	"testing"

	"repro/internal/arbiter/mapping"
	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/ioa"
	"repro/internal/proof"
)

// BenchmarkVerifyMapping is the possibilities-mapping kernel in
// isolation: both links of the open four-user hierarchy (h₂ then h₁,
// Lemmas 46 and 39) verified at two workers. Beside ns/op and allocs/op
// it reports the reachable states of the two lower automata and the Map
// calls made — one per reachable state plus one per start state, so the
// two differ by two here.
func BenchmarkVerifyMapping(b *testing.B) {
	tr, err := graph.BinaryTree(4)
	if err != nil {
		b.Fatal(err)
	}
	c, err := mapping.NewChain(tr, 0)
	if err != nil {
		b.Fatal(err)
	}
	mapCalls := 0
	counted := func(h *proof.PossMapping) *proof.PossMapping {
		return &proof.PossMapping{A: h.A, B: h.B, Map: func(s ioa.State) []ioa.State {
			mapCalls++
			return h.Map(s)
		}}
	}
	links := []*proof.PossMapping{counted(c.H2), counted(c.H1)}
	opts := explore.Options{Workers: 2}
	states := 0
	for _, h := range links {
		reach, err := explore.New(opts).Reach(context.Background(), h.A)
		if err != nil {
			b.Fatal(err)
		}
		states += len(reach)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, h := range links {
			if err := h.VerifyOpts(opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(states), "states")
	b.ReportMetric(float64(mapCalls)/float64(b.N), "mapcalls")
}
