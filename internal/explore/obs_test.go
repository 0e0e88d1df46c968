package explore

import (
	"context"
	"testing"

	"repro/internal/ioa"
	"repro/internal/obs"
)

// TestObsDoesNotChangeResults pins the core observability contract:
// attaching an Obs changes nothing about the explored state set.
func TestObsDoesNotChangeResults(t *testing.T) {
	plain, err := New(Options{Workers: 3}).Reach(context.Background(), modCounters(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(nil)
	a := modCounters(3, 4)
	ioa.SetObsDeep(a, o)
	instrumented, err := New(Options{Workers: 3, Obs: o}).Reach(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(instrumented) {
		t.Fatalf("instrumented run found %d states, plain %d", len(instrumented), len(plain))
	}
	for i := range plain {
		if plain[i].Key() != instrumented[i].Key() {
			t.Fatalf("state %d differs: %q vs %q", i, plain[i].Key(), instrumented[i].Key())
		}
	}
}

// TestObsExploreMetrics checks that an instrumented run populates the
// explorer and memo metric sets coherently.
func TestObsExploreMetrics(t *testing.T) {
	o := obs.New(nil)
	a := modCounters(3, 4) // 64 states
	ioa.SetObsDeep(a, o)
	states, err := New(Options{Workers: 2, Obs: o}).Reach(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Explore.States.Value(); got != int64(len(states)) {
		t.Errorf("explore.states_admitted = %d, want %d", got, len(states))
	}
	if o.Explore.Levels.Value() == 0 {
		t.Error("explore.levels = 0, want > 0")
	}
	if o.Explore.Successors.Value() < int64(len(states)) {
		t.Errorf("explore.successors_emitted = %d, want >= %d",
			o.Explore.Successors.Value(), len(states))
	}
	fr := o.Explore.Frontier.Snapshot()
	if fr.Count != o.Explore.Levels.Value() {
		t.Errorf("frontier observations = %d, want one per level (%d)",
			fr.Count, o.Explore.Levels.Value())
	}
	mv := o.Memo.Values()
	if mv["next_hit"]+mv["next_miss"] == 0 {
		t.Error("memo counters empty; SetObsDeep did not reach the composite")
	}
	// The trace should hold the exploration's span and memo counter
	// series.
	phases := map[string]bool{}
	for _, e := range o.Tracer.Events() {
		phases[e.Ph] = true
	}
	for _, ph := range []string{"X", "C"} {
		if !phases[ph] {
			t.Errorf("trace has no %q events", ph)
		}
	}
}

// TestObsStatesCounterAtLimit checks the admitted-states counter
// matches the result length when the budget truncates a level.
func TestObsStatesCounterAtLimit(t *testing.T) {
	o := obs.New(nil)
	a := modCounters(3, 4)
	states, err := New(Options{Workers: 2, Limit: 10, Obs: o}).Reach(context.Background(), a)
	if err == nil {
		t.Fatal("want ErrLimit")
	}
	if len(states) != 10 {
		t.Fatalf("partial result has %d states, want 10", len(states))
	}
	if got := o.Explore.States.Value(); got != 10 {
		t.Errorf("explore.states_admitted = %d, want 10", got)
	}
}

// TestObsStoreGauges checks both engines publish the state store's
// occupancy and arena footprint through the obs gauges (PR 5).
func TestObsStoreGauges(t *testing.T) {
	for _, w := range []int{1, 3} {
		o := obs.New(nil)
		states, err := New(Options{Workers: w, Obs: o}).Reach(nil, modCounters(3, 4))
		if err != nil {
			t.Fatal(err)
		}
		if got := o.Store.Occupancy.Value(); got != int64(len(states)) {
			t.Errorf("workers %d: store.occupancy = %d, want %d", w, got, len(states))
		}
		if o.Store.ArenaBytes.Value() <= 0 {
			t.Errorf("workers %d: store.arena_bytes = %d, want > 0", w, o.Store.ArenaBytes.Value())
		}
	}
}

// TestMemoBelongsToLeaves: in a composition of compositions only the
// leaf components are memoised, in rows owned by the composite being
// stepped. The outer composite here has nothing but (wrapped)
// compositions under it and is compiled down to their leaves, so its
// counters count every lookup while the inner ones, never stepped on
// their own, count none — and the run is still the reference run,
// state for state.
func TestMemoBelongsToLeaves(t *testing.T) {
	left := modCounters(2, 3).(*ioa.Composite)
	right := modCounters(2, 4).(*ioa.Composite)
	renamed, err := ioa.Rename(right, ioa.MustMapping(map[ioa.Action]ioa.Action{
		ioa.Act("tick", "ctr0"): ioa.Act("tock", "ctr0"),
		ioa.Act("tick", "ctr1"): ioa.Act("tock", "ctr1"),
	}))
	if err != nil {
		t.Fatal(err)
	}
	outer := ioa.MustCompose("nested", ioa.Hide(left, ioa.NewSet()), renamed)
	outerObs, innerObs := obs.New(nil), obs.New(nil)
	outer.SetObs(outerObs)
	left.SetObs(innerObs)
	right.SetObs(innerObs)

	want, err := ReferenceReach(outer, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		got, err := New(Options{Workers: workers, Obs: outerObs}).Reach(context.Background(), outer)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || len(got) != 9*16 {
			t.Fatalf("workers %d: reached %d states, reference %d, want 144", workers, len(got), len(want))
		}
		for i := range got {
			if got[i].Key() != want[i].Key() {
				t.Fatalf("workers %d: state %d is %q, reference %q", workers, i, got[i].Key(), want[i].Key())
			}
		}
	}
	for name, v := range innerObs.Memo.Values() {
		if v != 0 {
			t.Errorf("inner composites counted memo.%s = %d; only the outer composite is stepped, and it owns the rows of every leaf", name, v)
		}
	}
	outerMemo := outerObs.Memo.Values()
	if outerMemo["next_hit"]+outerMemo["next_miss"] == 0 || outerMemo["enabled_hit"]+outerMemo["enabled_miss"] == 0 {
		t.Errorf("the outer composite counted no memo lookups: %v", outerMemo)
	}
}
