package explore_test

// Level-merge battery (ISSUE 18): workers dedup on arrival in their own
// level sets, shard owners fold the sets, and the coordinator interns
// the carried bytes. None of that may show: the state slice, the
// violation and its witness are the same at every worker count, with
// and without a canonicalizer, on the arena and on a spill that flushes
// every few dozen states — and without a canonicalizer they are the
// key-sorted BFS levels of the sequential oracle.

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/explore"
	"repro/internal/grid"
	"repro/internal/ioa"
	"repro/internal/reduce"
	"repro/internal/store"
)

var mergeWorkers = []int{1, 2, 3, 8}

// mergeSystem is one battery subject: canon is a reduce canonicalizer,
// and quotients says whether it merges anything on this system (on the
// other two every state is its own orbit, so the canon path must
// reproduce the plain result exactly).
type mergeSystem struct {
	name      string
	a         ioa.Automaton
	canon     store.Canonicalizer
	quotients bool
}

func mergeSystems(t *testing.T) []mergeSystem {
	t.Helper()
	users, err := reduce.NewArbiterUsers(3)
	if err != nil {
		t.Fatal(err)
	}
	arbiter1, err := bench.ExploreSystem(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	arbiter2, err := bench.ExploreSystem(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := grid.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return []mergeSystem{
		{"arbiter2", arbiter2, users, false}, // tuple states
		{"grid4^4", g, users, false},         // KeyState states
		{"arbiter1", arbiter1, users, true},  // tuple states, S3 orbits
	}
}

// mergeBackends are the two seen sets, as Options.Spill values.
func mergeBackends(t *testing.T) map[string]func() *store.SpillOptions {
	return map[string]func() *store.SpillOptions{
		"arena": func() *store.SpillOptions { return nil },
		"spill": func() *store.SpillOptions { return &store.SpillOptions{Dir: t.TempDir(), MemBudget: 1 << 10} },
	}
}

func TestMergeIdenticalAcrossWorkersCanonAndBackend(t *testing.T) {
	for _, sys := range mergeSystems(t) {
		oracle := sortedLevelOrder(sys.a)
		for _, canon := range []store.Canonicalizer{nil, sys.canon} {
			// The reference everything else must equal element-wise: one
			// worker on the arena.
			ref, err := parallelReach(sys.a, explore.Options{Workers: 1, Canon: canon})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s canon=%v", sys.name, canon != nil)
			if canon == nil || !sys.quotients {
				if len(ref) != len(oracle) {
					t.Fatalf("%s: %d states, key-sorted-level oracle has %d", label, len(ref), len(oracle))
				}
				for i, s := range ref {
					if s.Key() != oracle[i] {
						t.Fatalf("%s: state %d is %q, oracle %q", label, i, s.Key(), oracle[i])
					}
				}
			} else if len(ref) >= len(oracle) {
				t.Fatalf("%s: quotient has %d states, full space %d", label, len(ref), len(oracle))
			}
			// A violation two thirds of the way through the canonical
			// order, so the witness crosses many merged levels.
			target := ref[2*len(ref)/3].Key()
			pred := func(s ioa.State) bool { return s.Key() != target }
			var refTrace string
			for backend, spill := range mergeBackends(t) {
				for _, w := range mergeWorkers {
					at := fmt.Sprintf("%s %s workers=%d", label, backend, w)
					got, err := parallelReach(sys.a, explore.Options{Workers: w, Canon: canon, Spill: spill()})
					if err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					assertSameOrder(t, at, ref, got)
					v, err := parallelCheck(sys.a, explore.Options{Workers: w, Canon: canon, Spill: spill()}, pred)
					if err != nil || v == nil {
						t.Fatalf("%s: check returned (%v, %v), want the violation at %q", at, v, err, target)
					}
					if v.State.Key() != target {
						t.Fatalf("%s: violation at %q, want %q", at, v.State.Key(), target)
					}
					if err := v.Trace.Validate(true); err != nil {
						t.Fatalf("%s: witness is not an execution: %v", at, err)
					}
					if trace := v.Trace.String(); refTrace == "" {
						refTrace = trace
					} else if trace != refTrace {
						t.Fatalf("%s: witness differs:\n%s\nwant\n%s", at, trace, refTrace)
					}
				}
			}
		}
	}
}

// TestMergeErrLimitMidLevel: a Limit that lands inside a level cuts the
// level in canonical order, so every worker count returns the same
// prefix of the unlimited result.
func TestMergeErrLimitMidLevel(t *testing.T) {
	for _, sys := range mergeSystems(t) {
		levels := bfsLevels(sys.a)
		limit := 0
		for _, lvl := range levels[:len(levels)/2] {
			limit += len(lvl)
		}
		mid := levels[len(levels)/2]
		if len(mid) < 2 {
			t.Fatalf("%s: level %d has %d states, cannot be cut", sys.name, len(levels)/2, len(mid))
		}
		limit += len(mid) / 2
		for _, canon := range []store.Canonicalizer{nil, sys.canon} {
			if canon != nil && sys.quotients {
				continue // the level sizes above are the unreduced ones
			}
			full, err := parallelReach(sys.a, explore.Options{Workers: 1, Canon: canon})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range mergeWorkers {
				at := fmt.Sprintf("%s canon=%v workers=%d limit=%d", sys.name, canon != nil, w, limit)
				got, err := parallelReach(sys.a, explore.Options{Workers: w, Canon: canon, Limit: limit})
				if !errors.Is(err, explore.ErrLimit) {
					t.Fatalf("%s: err = %v, want ErrLimit", at, err)
				}
				assertSameOrder(t, at, full[:limit], got)
			}
		}
	}
}

// TestMergeAllocationFence: the level scratch is reused across levels
// and duplicates die in the worker, so a parallel Reach of the 6^5 grid
// allocates about 500 B/state. While every emitted successor was kept
// until the barrier it was about 1 500 here (and 2 800 on the 9^6 grid
// of the benchmark, whose levels are wider).
func TestMergeAllocationFence(t *testing.T) {
	g, err := grid.New(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	states, err := parallelReach(g, explore.Options{Workers: 2})
	runtime.ReadMemStats(&after)
	if err != nil || int64(len(states)) != g.States() {
		t.Fatalf("reached %d states (%v), want %d", len(states), err, g.States())
	}
	const fence = 1200
	per := (after.TotalAlloc - before.TotalAlloc) / uint64(len(states))
	t.Logf("parallel Reach of %d states allocated %d B/state", len(states), per)
	if per > fence {
		t.Fatalf("parallel Reach allocated %d B/state, fence is %d", per, fence)
	}
}
