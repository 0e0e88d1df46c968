package store

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/ioa"
)

// freshKeys is n distinct encodings no other key of these tests shares.
func freshKeys(prefix string, n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%s-%04d", prefix, i))
	}
	return keys
}

// appendKeys admits keys through AppendFresh at the given worker count.
func appendKeys(set SeenSet, workers int, keys [][]byte) {
	set.AppendFresh(len(keys), workers, func(i int) ([]byte, uint64) { return keys[i], Hash(keys[i]) })
}

// TestAppendFresh holds AppendFresh to its contract on both backends,
// at one worker and at several, after a few ordinary interns: IDs run
// densely on from Len(), Has and a probe find each appended encoding
// under its ID, and InternEncoded of the same bytes reports it not
// fresh. The spill's budget is tiny, so its entries go through flushes
// and compactions on the way.
func TestAppendFresh(t *testing.T) {
	for _, spill := range []bool{false, true} {
		for _, workers := range []int{1, 2, 3, 32} {
			t.Run(fmt.Sprintf("spill=%v/workers%d", spill, workers), func(t *testing.T) {
				var set SeenSet = New(Options{})
				if spill {
					set = newTestSpill(t, SpillOptions{MemBudget: 256, BlockEvery: 2})
				}
				for i := 0; i < 5; i++ {
					set.Intern(ioa.KeyState(fmt.Sprintf("pre-%d", i)))
				}
				keys := freshKeys("fresh", 300)
				for batch := keys; len(batch) > 0; batch = batch[min(len(batch), 70):] {
					before := set.Len()
					appendKeys(set, workers, batch[:min(len(batch), 70)])
					if got, want := set.Len(), before+min(len(batch), 70); got != want {
						t.Fatalf("Len = %d after appending %d to %d", got, min(len(batch), 70), before)
					}
				}
				if err := set.Err(); err != nil {
					t.Fatal(err)
				}
				probe := set.Probe()
				for i, k := range keys {
					want := ID(5 + i)
					if id, ok := set.Has(ioa.KeyState(k)); !ok || id != want {
						t.Fatalf("Has(%q) = (%d, %v), want (%d, true)", k, id, ok, want)
					}
					if id, ok := probe.Lookup(k, Hash(k)); !ok || id != want {
						t.Fatalf("probe Lookup(%q) = (%d, %v), want (%d, true)", k, id, ok, want)
					}
					if id, fresh := set.InternEncoded(k, Hash(k)); fresh || id != want {
						t.Fatalf("InternEncoded(%q) = (%d, %v), want (%d, false)", k, id, fresh, want)
					}
				}
				if set.Len() != 305 {
					t.Fatalf("Len = %d after re-interning, want 305", set.Len())
				}
				if sp, ok := set.(*Spill); ok {
					if s := sp.Stats(); s.SpillRuns == 0 || s.Compactions == 0 {
						t.Fatalf("the appends never flushed and compacted: %+v", s)
					}
				}
			})
		}
	}
}

// TestAppendFreshArenaFull: an encoding the arena cannot address ends
// the append there and latches ErrArenaFull, as InternEncoded does —
// what went in before it stays findable, nothing after it goes in.
func TestAppendFreshArenaFull(t *testing.T) {
	defer ShrinkArenaLimit(20)()
	for _, workers := range []int{1, 2} {
		st := New(Options{})
		keys := freshKeys("k", 4) // 6 bytes each: the fourth does not fit
		appendKeys(st, workers, keys)
		if !errors.Is(st.Err(), ErrArenaFull) {
			t.Fatalf("workers=%d: Err() = %v, want ErrArenaFull", workers, st.Err())
		}
		if st.Len() != 3 {
			t.Fatalf("workers=%d: store holds %d states, want 3", workers, st.Len())
		}
		p := st.Probe()
		for i, k := range keys {
			id, ok := p.Lookup(k, Hash(k))
			if want := i < 3; ok != want || (ok && id != ID(i)) {
				t.Fatalf("workers=%d: Lookup(%q) = (%d, %v), want member %v under %d", workers, k, id, ok, want, i)
			}
		}
	}
}
