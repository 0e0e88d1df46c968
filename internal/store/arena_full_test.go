package store_test

// A shard arena addresses its encodings with 32-bit offsets. Before
// the bound was checked an arena growing past 4 GiB wrapped them, so
// equal compared the wrong bytes and an exploration could finish with
// a short state count and a nil error. The bound is shrunk here so
// the overflow is reachable in a test.

import (
	"context"
	"errors"
	"testing"

	"repro/internal/explore"
	"repro/internal/grid"
	"repro/internal/ioa"
	"repro/internal/store"
)

func TestArenaFullLatchesError(t *testing.T) {
	defer store.ShrinkArenaLimit(8)()
	st := store.New(store.Options{})
	if _, fresh := store.InternState(st, ioa.KeyState("12345678")); !fresh || st.Err() != nil {
		t.Fatalf("exact fit refused: fresh=%v err=%v", fresh, st.Err())
	}
	if id, fresh := store.InternState(st, ioa.KeyState("9")); fresh || id != store.None {
		t.Fatalf("overflowing intern returned (%d, %v), want (None, false)", id, fresh)
	}
	if !errors.Is(st.Err(), store.ErrArenaFull) {
		t.Fatalf("Err() = %v, want ErrArenaFull", st.Err())
	}
	if st.Len() != 1 {
		t.Fatalf("store holds %d states after the refused intern, want 1", st.Len())
	}
	if id, fresh := store.InternState(st, ioa.KeyState("12345678")); fresh || id != 0 {
		t.Fatalf("stored encoding lost after overflow: (%d, %v)", id, fresh)
	}
}

// TestReachArenaFull: every engine entry that fills a RAM store must
// turn the overflow into a wrapped storage error, never a nil error
// with fewer states than the grid has.
func TestReachArenaFull(t *testing.T) {
	g, err := grid.New(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	eng := explore.New(explore.Options{})
	states, err := eng.Reach(ctx, g)
	if err != nil || int64(len(states)) != g.States() {
		t.Fatalf("unbounded reach = %d states, %v; want %d", len(states), err, g.States())
	}
	restore := store.ShrinkArenaLimit(8)
	_, reachErr := eng.Reach(ctx, g)
	_, checkErr := eng.CheckInvariant(ctx, g, func(ioa.State) bool { return true })
	restore()
	for name, err := range map[string]error{"Reach": reachErr, "CheckInvariant": checkErr} {
		if !errors.Is(err, store.ErrArenaFull) {
			t.Errorf("%s: err = %v, want a wrapped ErrArenaFull", name, err)
		}
	}
}
