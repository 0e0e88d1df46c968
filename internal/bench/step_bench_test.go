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
	step := ioa.NewWalk(sys)
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

// BenchmarkCheckInvariantArbiter is the sequential kernel end to end:
// one-worker CheckInvariant of mutual exclusion on the closed level-3
// arbiter with five users, every one of its 4 837 states checked — the
// loop arbiter3-check times at seven. One untimed run first fills the
// composite's cells and memo rows, so B/op and allocs/op over the states
// metric are what the kernel itself spends per checked state: its store,
// its crumbs, and whatever states it keeps.
func BenchmarkCheckInvariantArbiter(b *testing.B) {
	ioa.SetScratchPoison(false) // as in BenchmarkCompositeStep
	defer ioa.SetScratchPoison(true)
	sys, err := ExploreSystem(3, 5)
	if err != nil {
		b.Fatal(err)
	}
	eng := explore.New(explore.Options{Workers: 1})
	checked := 0
	check := func() {
		checked = 0
		v, err := eng.CheckInvariant(context.Background(), sys, func(s ioa.State) bool {
			checked++
			return MutexInvariant(s)
		})
		if err != nil || v != nil {
			b.Fatalf("CheckInvariant: violation %v, error %v", v, err)
		}
	}
	check()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		check()
	}
	b.ReportMetric(float64(checked), "states")
}

// BenchmarkLevelMerge is a walk where the level set, not the automaton,
// is the workload: the external census of the 7^5 grid (16 807 states,
// four in five successors a duplicate inside its level), its chunk a
// fifth of the encoded state space. B/op over the states metric is bytes
// allocated per state. The run count comes from one untimed instrumented
// run.
func BenchmarkLevelMerge(b *testing.B) {
	g, err := grid.New(7, 5)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.Run("spill", func(b *testing.B) {
		opts := explore.Options{Limit: int(g.States()), Obs: obs.New(nil), Decode: g.Decode,
			Spill: &store.SpillOptions{Dir: b.TempDir(), MemBudget: 16 << 10}}
		if _, err := explore.New(opts).Census(ctx, g, nil, nil); err != nil {
			b.Fatal(err)
		}
		runs := opts.Obs.Store.SpillRuns.Value()
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
		b.ReportMetric(float64(runs), "runs")
	})
}
