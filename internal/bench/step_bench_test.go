package bench

import (
	"context"
	"testing"

	"repro/internal/explore"
	"repro/internal/grid"
	"repro/internal/ioa"
	"repro/internal/obs"
	"repro/internal/store"
)

// BenchmarkCompositeStep is the exploration hot path in isolation: one
// sweep over every reachable state of the closed level-3 arbiter (a
// composition of a composition), each successor encoded into a reused
// buffer the way Intern does. step is the sorted ioa.Walk sweep the
// engines run, its successors borrowed from the Walk's scratch; next is
// the same actions through Next with no scratch, the heap walk every
// other caller takes. allocs/op divided by the successors metric is the
// per-successor allocation count — next's minus step's is what a
// successor's tuples cost, and what is left in step is Enabled.
func BenchmarkCompositeStep(b *testing.B) {
	// The package's tests run poisoned (poison_test.go); a poisoned
	// scratch abandons its memory on every Visit, which is not what the
	// engines pay.
	ioa.SetScratchPoison(false)
	defer ioa.SetScratchPoison(true)
	sys, err := ExploreSystem(3, 4)
	if err != nil {
		b.Fatal(err)
	}
	states, err := explore.New(explore.Options{Workers: 1}).Reach(context.Background(), sys)
	if err != nil {
		b.Fatal(err)
	}
	var buf []byte
	successors := 0
	yield := func(nxt ioa.State) bool {
		buf = ioa.AppendState(buf[:0], nxt)
		successors++
		return true
	}
	step := ioa.NewWalk(sys, true)
	inputs := sys.Sig().Inputs().Sorted()
	for _, arm := range []struct {
		name  string
		visit func(s ioa.State)
	}{
		{"step", func(s ioa.State) { step.Visit(s, yield) }},
		{"next", func(s ioa.State) {
			for _, acts := range [][]ioa.Action{sys.Enabled(s), inputs} {
				for _, act := range acts {
					sys.Next(nil, s, act, yield)
				}
			}
		}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				successors = 0
				for _, s := range states {
					arm.visit(s)
				}
			}
			b.ReportMetric(float64(len(states)), "states")
			b.ReportMetric(float64(successors), "successors")
		})
	}
}

// BenchmarkLevelMerge is a Census where the level set, not the
// automaton, is the workload: the 7^5 grid (16 807 states, four in five
// successors a duplicate inside its level), as ram — the two-worker
// level-synchronized engine — and as spill — the external census, its
// chunk a fifth of the encoded state space. B/op over the states metric
// is bytes allocated per state. The successor and run counts come from
// one untimed instrumented run.
func BenchmarkLevelMerge(b *testing.B) {
	g, err := grid.New(7, 5)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, mode := range []string{"ram", "spill"} {
		b.Run(mode, func(b *testing.B) {
			opts := explore.Options{Workers: 2, Limit: int(g.States()), Obs: obs.New(nil)}
			if mode == "spill" {
				opts.Decode = g.Decode
				opts.Spill = &store.SpillOptions{Dir: b.TempDir(), MemBudget: 16 << 10}
			}
			if _, err := explore.New(opts).Census(ctx, g, nil, nil); err != nil {
				b.Fatal(err)
			}
			successors, runs := opts.Obs.Explore.Successors.Value(), opts.Obs.Store.SpillRuns.Value()
			opts.Obs = nil
			eng := explore.New(opts)
			var sum explore.Summary
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sum, err = eng.Census(ctx, g, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
			if sum.States != g.States() {
				b.Fatalf("census counted %d states, want %d", sum.States, g.States())
			}
			b.ReportMetric(float64(sum.States), "states")
			if mode == "ram" {
				b.ReportMetric(float64(successors), "successors")
			} else {
				b.ReportMetric(float64(runs), "runs")
			}
		})
	}
}
