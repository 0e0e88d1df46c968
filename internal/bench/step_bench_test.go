package bench

import (
	"context"
	"testing"

	"repro/internal/explore"
	"repro/internal/ioa"
)

// BenchmarkCompositeStep is the exploration hot path in isolation: one
// sorted explore.Step sweep over every reachable state of the closed
// level-3 arbiter (a composition of a composition), each successor
// encoded into a reused buffer the way Intern does. allocs/op divided
// by the successors metric is the per-successor allocation count.
func BenchmarkCompositeStep(b *testing.B) {
	sys, err := ExploreSystem(3, 4)
	if err != nil {
		b.Fatal(err)
	}
	states, err := explore.New(explore.Options{Workers: 1}).Reach(context.Background(), sys)
	if err != nil {
		b.Fatal(err)
	}
	step := explore.NewStep(sys, true)
	var buf []byte
	successors := 0
	yield := func(nxt ioa.State) bool {
		buf = ioa.AppendState(buf[:0], nxt)
		successors++
		return true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		successors = 0
		for _, s := range states {
			step.Visit(s, yield)
		}
	}
	b.ReportMetric(float64(len(states)), "states")
	b.ReportMetric(float64(successors), "successors")
}
