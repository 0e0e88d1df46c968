package explore_test

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/obs"
)

// TestSeqKernelInternsCellIndices: the sequential kernel interns a
// composite's state as ioa.Encoder's bytes — a tag and one uvarint cell
// index per leaf, at most two bytes each on arbiter3, where the Key runs
// to hundreds — while the level engine, which orders candidates by
// their bytes, still interns AppendState's.
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
	states, seq := reach(1)
	leaves := leafCount(states[0])
	if bound := int64(len(states) * (1 + 2*leaves)); seq > bound {
		t.Fatalf("Workers 1: %d states of %d leaves take %d arena bytes (%.1f a state), over the %d cell indices allow",
			len(states), leaves, seq, float64(seq)/float64(len(states)), bound)
	}
	states, par := reach(2)
	var keys int64
	for _, s := range states {
		keys += int64(len(ioa.AppendState(nil, s)))
	}
	if par != keys {
		t.Fatalf("Workers 2: the arena holds %d bytes, the states' AppendState encodings %d", par, keys)
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
