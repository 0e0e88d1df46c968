package explore_test

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"repro/internal/arbiter/users"
	"repro/internal/bench"
	"repro/internal/explore"
	"repro/internal/figures"
	"repro/internal/ioa"
	"repro/internal/obs"
	"repro/internal/store"
)

// TestSeqKernelInternsCellIndices: the sequential kernel interns a
// composite's state as ioa.Encoder's bytes — a tag and one uvarint cell
// index per leaf, at most two bytes each on arbiter3, where the Key runs
// to hundreds — at one worker and at two.
func TestSeqKernelInternsCellIndices(t *testing.T) {
	a, err := bench.ExploreSystem(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	reach := func(workers int) ([]ioa.State, int64) {
		o := obs.New(nil)
		states, err := explore.New(explore.Options{Workers: workers, Obs: o}).Reach(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		return states, o.Store.ArenaBytes.Value()
	}
	for _, workers := range []int{1, 2} {
		states, arena := reach(workers)
		leaves := leafCount(states[0])
		if bound := int64(len(states) * (1 + 2*leaves)); arena > bound {
			t.Fatalf("Workers %d: %d states of %d leaves take %d arena bytes (%.1f a state), over the %d cell indices allow",
				workers, len(states), leaves, arena, float64(arena)/float64(len(states)), bound)
		}
	}
}

// leafCount counts the parts of s that are not tuples, at any depth.
func leafCount(s ioa.State) int {
	ts, ok := s.(*ioa.TupleState)
	if !ok {
		return 1
	}
	n := 0
	for i := range ts.Len() {
		n += leafCount(ts.At(i))
	}
	return n
}

// TestCheckInvariantKeepsNoStates: a warmed-up CheckInvariant on the
// closed level-3 arbiter with five users allocates about one object per
// checked state — the Enabled list — and no copy of the state, which
// the kernel decodes from its cell indices in the store when it expands
// it, at any worker count. A kernel that keeps a heap tuple per
// admitted state allocates five objects per state here.
func TestCheckInvariantKeepsNoStates(t *testing.T) {
	ioa.SetScratchPoison(false) // a poisoned scratch abandons its memory on every Reset
	defer ioa.SetScratchPoison(true)
	a, err := bench.ExploreSystem(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		eng := explore.New(explore.Options{Workers: workers})
		checked := 0
		check := func() {
			checked = 0
			v, err := eng.CheckInvariant(context.Background(), a, func(s ioa.State) bool {
				checked++
				return bench.MutexInvariant(s)
			})
			if err != nil || v != nil {
				t.Fatalf("Workers %d: CheckInvariant: violation %v, error %v", workers, v, err)
			}
		}
		check() // fill the composite's cells and memo rows
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		check()
		runtime.ReadMemStats(&after)
		if checked != 4837 {
			t.Fatalf("Workers %d: checked %d states, want 4837", workers, checked)
		}
		perState := float64(after.Mallocs-before.Mallocs) / float64(checked)
		t.Logf("Workers %d: %.2f objects allocated per checked state", workers, perState)
		if perState > 2 {
			t.Fatalf("Workers %d: %d objects allocated for %d checked states: %.2f a state, want at most 2", workers, after.Mallocs-before.Mallocs, checked, perState)
		}
	}
}

// TestCheckInvariantWitnessOutlivesKernel: the violation a one-worker
// CheckInvariant reports is decoded onto the heap, so in this poisoned
// binary its state and every state of its trace keep their keys after
// another exploration has reused every scratch, none of them is
// borrowed (ioa.Keep returns each as it is), and the trace is a valid
// execution from a start state to it. It is, step for step, the witness
// of the kernel that keeps a heap copy of every state, which the spill
// store runs.
func TestCheckInvariantWitnessOutlivesKernel(t *testing.T) {
	a3, err := bench.ExploreSystem(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []struct {
		a    ioa.Automaton
		pred func(ioa.State) bool // false somewhere
	}{
		{figures.Fig21(), func(s ioa.State) bool { return s.(*ioa.TupleState).At(1).Key() != "b1" }},
		{a3, func(s ioa.State) bool { return !firstHolds(s) }},
	} {
		check := func(opts explore.Options) *explore.Violation {
			v, err := explore.New(opts).CheckInvariant(context.Background(), sys.a, sys.pred)
			if err != nil || v == nil {
				t.Fatalf("%s: CheckInvariant: violation %v, error %v", sys.a.Name(), v, err)
			}
			return v
		}
		v := check(explore.Options{Workers: 1})
		want := witnessKeys(v)
		if _, err := explore.New(explore.Options{Workers: 1}).Reach(context.Background(), sys.a); err != nil {
			t.Fatal(err)
		}
		if got := witnessKeys(v); !slices.Equal(got, want) {
			t.Fatalf("%s: after another exploration the witness reads\n %q\nwhere it read\n %q", sys.a.Name(), got, want)
		}
		if err := v.Trace.Validate(true); err != nil {
			t.Fatalf("%s: witness: %v", sys.a.Name(), err)
		}
		for _, s := range append([]ioa.State{v.State}, v.Trace.States...) {
			if ioa.Keep(s) != s {
				t.Fatalf("%s: witness state %q is borrowed from a scratch", sys.a.Name(), s.Key())
			}
		}
		if v.Trace.Last().Key() != v.State.Key() {
			t.Fatalf("%s: the witness ends at %q, not at the violation %q", sys.a.Name(), v.Trace.Last().Key(), v.State.Key())
		}
		kept := check(explore.Options{Workers: 1, Spill: &store.SpillOptions{Dir: t.TempDir()}})
		if got := witnessKeys(kept); !slices.Equal(got, want) {
			t.Fatalf("%s: the kernel keeping heap states reports\n %q\nthe one decoding them\n %q", sys.a.Name(), got, want)
		}
	}
}

// firstHolds reports whether the first user of the closed arbiter holds
// the resource, six steps from the start on three users.
func firstHolds(s ioa.State) bool {
	return s.(*ioa.TupleState).At(1).(*users.State).Phase() == users.Holding
}

// witnessKeys is v's state and its trace, actions and states in order.
func witnessKeys(v *explore.Violation) []string {
	out := []string{v.State.Key()}
	for i, s := range v.Trace.States {
		if i > 0 {
			out = append(out, string(v.Trace.Acts[i-1]))
		}
		out = append(out, s.Key())
	}
	return out
}
