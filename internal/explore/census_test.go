package explore_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/explore"
	"repro/internal/grid"
	"repro/internal/ioa"
	"repro/internal/reduce"
	"repro/internal/store"
)

// TestCensusKeepsNoStates: a warmed-up in-RAM Census at two workers
// allocates per state what walking the state costs (its Enabled list and
// successors) plus at most the decoded state itself, and when it visits
// its last state nothing it admitted is alive on the heap but the store.
// A census that keeps a heap copy of every state — five objects a state
// on a composite — fails the first bound on the closed
// arbiter and the second on both systems.
func TestCensusKeepsNoStates(t *testing.T) {
	ioa.SetScratchPoison(false) // a poisoned scratch abandons its memory on every Reset
	defer ioa.SetScratchPoison(true)
	g, err := grid.New(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	arbiter, err := bench.ExploreSystem(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	eng := explore.New(explore.Options{Workers: 2})
	for _, a := range []ioa.Automaton{g, arbiter} {
		states, err := explore.New(explore.Options{Workers: 1}).Reach(ctx, a) // also fills the cells and memo rows
		if err != nil {
			t.Fatal(err)
		}
		n := float64(len(states))
		var before, after runtime.MemStats
		walk := ioa.NewWalk(a)
		runtime.ReadMemStats(&before)
		for _, s := range states {
			walk.Visit(s, func(ioa.State) bool { return true })
		}
		runtime.ReadMemStats(&after)
		walked := float64(after.Mallocs-before.Mallocs) / n

		runtime.ReadMemStats(&before)
		sum, err := eng.Census(ctx, a, nil, nil)
		runtime.ReadMemStats(&after)
		if err != nil || sum.States != int64(len(states)) {
			t.Fatalf("%s: census of %d states (%v), want %d", a.Name(), sum.States, err, len(states))
		}
		allocated := float64(after.Mallocs-before.Mallocs) / n
		t.Logf("%s: %.2f objects allocated per state, %.2f walking it", a.Name(), allocated, walked)
		if allocated > walked+2.25 {
			t.Fatalf("%s: the census allocates %.2f objects a state, walking one %.2f: more than the decoded state on top", a.Name(), allocated, walked)
		}

		// Live objects at the last visit, after a collection, against
		// those before the census: the store's few slabs, no state.
		visited := 0
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := eng.Census(ctx, a, nil, func(ioa.State) {
			if visited++; visited == len(states) {
				runtime.GC()
				runtime.ReadMemStats(&after)
			}
		}); err != nil {
			t.Fatal(err)
		}
		live := (float64(after.HeapObjects) - float64(before.HeapObjects)) / n
		t.Logf("%s: %.3f objects a state alive at the last visit", a.Name(), live)
		if live > 0.1 {
			t.Fatalf("%s: %.3f objects a state are alive at the last visit, want the store alone", a.Name(), live)
		}
	}
}

// TestCensusMatchesReach: the in-RAM Census, at every worker count, on
// grids, the closed arbiter, a symmetry-reduced arbiter and a spilling
// store with no Decode hook, visits the states of ReferenceReach (of the
// one-worker Reach under Canon) in their order, reports their count, the
// BFS depth and the states that enable nothing, names the first state
// that breaks an invariant with a minimal-length witness, and holds
// Limit as Reach does: an exact fit completes, one state fewer is
// ErrLimit with exactly Limit states visited.
func TestCensusMatchesReach(t *testing.T) {
	ctx := context.Background()
	arbiter3, err := bench.ExploreSystem(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	arbiter1, err := bench.ExploreSystem(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	users, err := reduce.NewArbiterUsers(3)
	if err != nil {
		t.Fatal(err)
	}
	type system struct {
		name  string
		a     ioa.Automaton
		canon store.Canonicalizer
		spill bool
	}
	systems := []system{{"arbiter3", arbiter3, nil, false}, {"arbiter1/canon", arbiter1, users, false}}
	for _, shape := range [][2]int{{3, 3}, {2, 5}, {5, 2}} {
		g, err := grid.New(shape[0], shape[1])
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, system{g.Name(), g, nil, false})
	}
	g, err := grid.New(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	systems = append(systems, system{g.Name() + "/spill", g, nil, true})

	for _, sys := range systems {
		ref, err := explore.ReferenceReach(sys.a, explore.DefaultLimit)
		if sys.canon != nil {
			ref, err = explore.New(explore.Options{Workers: 1, Canon: sys.canon}).Reach(ctx, sys.a)
		}
		if err != nil {
			t.Fatal(err)
		}
		key := func(s ioa.State) string { return s.Key() }
		if sys.canon != nil {
			key = func(s ioa.State) string { return sys.canon.Canonical(s).Key() }
		}
		depth, want := bfsDepths(sys.a, ref, key)
		keys := make([]string, len(ref))
		for i, s := range ref {
			keys[i] = s.Key()
		}
		// A violation two thirds of the way through the BFS order, and
		// the length of its shortest execution.
		target, steps := ref[2*len(ref)/3].Key(), int(depth[key(ref[2*len(ref)/3])])
		for _, w := range []int{1, 2, 3, 8} {
			census := func(limit int, pred func(ioa.State) bool) (explore.Summary, []string, error) {
				opts := explore.Options{Workers: w, Limit: limit, Canon: sys.canon}
				if sys.spill {
					opts.Spill = &store.SpillOptions{Dir: t.TempDir(), MemBudget: 256}
				}
				var visited []string
				sum, err := explore.New(opts).Census(ctx, sys.a, pred, func(s ioa.State) { visited = append(visited, s.Key()) })
				return sum, visited, err
			}
			at := fmt.Sprintf("%s workers=%d", sys.name, w)
			sum, visited, err := census(0, nil)
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			if !slices.Equal(visited, keys) {
				t.Fatalf("%s: visited %d states, not the %d of the reference in its order", at, len(visited), len(keys))
			}
			if sum != want {
				t.Fatalf("%s: summary %+v, want %+v", at, sum, want)
			}

			sum, _, err = census(0, func(s ioa.State) bool { return s.Key() != target })
			if v := sum.Violation; err != nil || v == nil || v.State.Key() != target {
				t.Fatalf("%s: census returned (%+v, %v), want the violation at %q", at, v, err, target)
			}
			if err := sum.Violation.Trace.Validate(true); err != nil {
				t.Fatalf("%s: witness is not an execution: %v", at, err)
			}
			if x := sum.Violation.Trace; x.Len() != steps || x.Last().Key() != target {
				t.Fatalf("%s: a %d-step witness ending at %q, want the %d steps to %q", at, x.Len(), x.Last().Key(), steps, target)
			}

			if sum, _, err = census(len(ref), nil); err != nil || sum.States != want.States {
				t.Fatalf("%s: Limit %d (exact fit): %d states, %v", at, len(ref), sum.States, err)
			}
			sum, visited, err = census(len(ref)-1, nil)
			if !errors.Is(err, explore.ErrLimit) || sum.States != want.States-1 || !slices.Equal(visited, keys[:len(keys)-1]) {
				t.Fatalf("%s: Limit %d: %d states, %d visited, %v; want ErrLimit and the reference less its last state", at, len(ref)-1, sum.States, len(visited), err)
			}
		}
	}
}

// bfsDepths reads off order, a BFS order of a's reachable states under
// key, the BFS depth of every key and the summary a census must report.
func bfsDepths(a ioa.Automaton, order []ioa.State, key func(ioa.State) string) (map[string]int64, explore.Summary) {
	depth := make(map[string]int64)
	for _, s := range a.Start() {
		depth[key(s)] = 0
	}
	sum := explore.Summary{States: int64(len(order))}
	acts := a.Sig().Acts().Sorted()
	for _, s := range order {
		d := depth[key(s)]
		sum.Depth = max(sum.Depth, d)
		if len(a.Enabled(s)) == 0 {
			sum.Deadlocks++
		}
		for _, act := range acts {
			for _, nxt := range ioa.Successors(a, s, act) {
				if _, ok := depth[key(nxt)]; !ok {
					depth[key(nxt)] = d + 1
				}
			}
		}
	}
	return depth, sum
}
