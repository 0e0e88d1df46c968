package explore

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/ioa"
	"repro/internal/store"
)

func TestOptionsResolution(t *testing.T) {
	if got := (Options{}).WorkerCount(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("zero Workers resolved to %d, want GOMAXPROCS", got)
	}
	if got := (Options{Workers: 3}).WorkerCount(); got != 3 {
		t.Errorf("Workers=3 resolved to %d", got)
	}
	if got := (Options{Workers: -1}).WorkerCount(); got != 1 {
		t.Errorf("negative Workers resolved to %d, want 1", got)
	}
	if got := (Options{}).limit(); got != DefaultLimit {
		t.Errorf("zero Limit resolved to %d, want DefaultLimit", got)
	}
	if got := (Options{Limit: 17}).limit(); got != 17 {
		t.Errorf("Limit=17 resolved to %d", got)
	}
}

func TestParallelCheckNilPred(t *testing.T) {
	e := New(Options{Workers: 1})
	if _, err := e.CheckInvariant(nil, nil, nil); err == nil {
		t.Fatal("Engine.CheckInvariant accepted nil predicate")
	}
}

// TestLevelSetForgedCollision: distinct bytes under one forged hash are
// two candidates, never a merge — in one worker's set and across the
// merge. Every encoding is found twice, under parents i and i+1, and
// parent p is expanded by worker p mod 2, so the merge keeps each under
// parent i.
func TestLevelSetForgedCollision(t *testing.T) {
	const forged = 0xfeedface
	lv := &levelScratch{sets: make([]store.LevelSet[cand], 2), pos: make([]int, 2)}
	for i := 0; i < 100; i++ {
		enc := []byte(fmt.Sprintf("k%03d", i))
		lv.sets[i%2].Add(enc, forged, cand{state: ioa.KeyState(enc), parent: store.ID(i), act: "a"})
		lv.sets[(i+1)%2].Add(enc, forged, cand{state: ioa.KeyState(enc), parent: store.ID(i + 1), act: "a"})
	}
	next := lv.gather()
	if len(next) != 100 {
		t.Fatalf("gathered %d candidates, want 100", len(next))
	}
	for i, c := range next {
		want := fmt.Sprintf("k%03d", i)
		if enc, _ := lv.encoding(c); string(enc) != want || c.state.Key() != want || c.parent != store.ID(i) {
			t.Fatalf("entry %d: enc %q state %q parent %d, want %q with parent %d", i, enc, c.state.Key(), c.parent, want, i)
		}
	}
	lv.sets[0].Reset()
	lv.sets[1].Reset()
	if got := lv.gather(); len(got) != 0 {
		t.Fatalf("after reset gathered %d candidates, want none", len(got))
	}
}
