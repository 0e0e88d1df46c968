package cluster

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/explore"
	"repro/internal/ioa"
)

// The whole test binary runs with ioa's scratch poisoning on: every
// ioa.Walk.Visit overwrites what the Visit before it lent, so a
// loop that retains a borrowed successor without ioa.Keep feeds this
// package's batteries garbage (explore/borrow_test.go has the contract
// and the must-fail arm).
func init() { ioa.SetScratchPoison(true) }

// TestClusterKeepsWhatItExpands: the battery's systems are tables and
// grids, whose successors are never borrowed, so this is the worker's
// side of the contract on compositions — the frontier a rank expands
// next level is made of successors its Step lent it the level before.
// A rank that kept them without ioa.Keep would expand poison: wrong
// counts, and a predicate that reads every part would see it.
func TestClusterKeepsWhatItExpands(t *testing.T) {
	for _, name := range []string{"arbiter3", "star"} {
		sys, err := bench.FindSystem(name)
		if err != nil {
			t.Fatal(err)
		}
		build := func() (ioa.Automaton, error) { return sys.Build(bench.Params{Users: 3}) }
		a, err := build()
		if err != nil {
			t.Fatal(err)
		}
		want, err := explore.New(explore.Options{Workers: 1}).Reach(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		sound := func(s ioa.State) bool {
			ts := s.(*ioa.TupleState)
			for p := 0; p < ts.Len(); p++ {
				if ts.At(p).Key() == ioa.PoisonKey {
					return false
				}
			}
			return true
		}
		for _, procs := range []int{1, 2} {
			res, errs := run(t, procs, nil, Config{Build: build, Pred: sound})
			for rank, werr := range errs {
				if werr != nil {
					t.Fatalf("%s procs=%d rank %d: %v", name, procs, rank, werr)
				}
			}
			if res.States != int64(len(want)) || res.Violation != "" {
				t.Fatalf("%s procs=%d: %d states, violation %q; the engine found %d and none", name, procs, res.States, res.Violation, len(want))
			}
		}
	}
}
