package explore

import (
	"bytes"
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

// TestCandLess pins the Canon branch of the winner rule: least
// (state key, parent, act).
func TestCandLess(t *testing.T) {
	s := ioa.KeyState("s")
	a := cand{state: s, parent: 1, act: "x"}
	b := cand{state: s, parent: 2, act: "a"}
	if !candLess(a, b, true) || candLess(b, a, true) {
		t.Error("parent ID must dominate among equal-key states")
	}
	c := cand{state: s, parent: 1, act: "y"}
	if !candLess(a, c, true) || candLess(c, a, true) {
		t.Error("action breaks parent ties")
	}
	// Under a canonicalizer, one encoding holds orbit-mates with
	// distinct concrete keys: the least key wins regardless of crumb.
	d := cand{state: ioa.KeyState("r"), parent: 9, act: "z"}
	if !candLess(d, a, true) || candLess(a, d, true) {
		t.Error("state key must dominate parent and action")
	}
}

// panicKey is a state whose Key must never be asked for: without a
// canonicalizer the level sets decide on the probe's bytes alone.
type panicKey struct{}

func (panicKey) Key() string { panic("Key() called on the no-canon path") }

// TestCandLessNoCanon is the twin: equal bytes mean equal states, so
// the least (parent, act) wins whichever worker saw it first, and no
// key is built.
func TestCandLessNoCanon(t *testing.T) {
	crumbs := []cand{
		{state: panicKey{}, parent: 2, act: "a"},
		{state: panicKey{}, parent: 1, act: "y"},
		{state: panicKey{}, parent: 1, act: "x"}, // the least
		{state: panicKey{}, parent: 3, act: "a"},
	}
	enc := []byte("s")
	h := store.Hash(enc)
	// Every arrival order, spread over three workers' sets.
	for rot := range crumbs {
		lv := newLevelScratch(3, false)
		for i := range crumbs {
			lv.add((i+rot)%3, enc, h, crumbs[(i+rot)%len(crumbs)])
		}
		next := orderAndGather(lv)
		if len(next) != 1 || next[0].parent != 1 || next[0].act != "x" {
			t.Fatalf("rotation %d: kept %+v, want the (1, x) crumb alone", rot, next)
		}
		if genc, gh := lv.encoding(next[0]); !bytes.Equal(genc, enc) || gh != h {
			t.Fatalf("rotation %d: gathered encoding %q hash %x, want %q %x", rot, genc, gh, enc, h)
		}
	}
}

// TestLevelSetForgedCollision: distinct bytes under one forged hash are
// two candidates, never a merge — in one worker's set and across the
// merge.
func TestLevelSetForgedCollision(t *testing.T) {
	const forged = 0xfeedface
	lv := newLevelScratch(2, false)
	for i := 0; i < 100; i++ {
		enc := []byte(fmt.Sprintf("k%03d", i))
		lv.add(i%2, enc, forged, cand{state: ioa.KeyState(enc), parent: store.ID(i), act: "a"})
		lv.add((i+1)%2, enc, forged, cand{state: ioa.KeyState(enc), parent: store.ID(i + 1), act: "a"})
	}
	next := orderAndGather(lv)
	if len(next) != 100 {
		t.Fatalf("gathered %d candidates, want 100", len(next))
	}
	for i, c := range next {
		want := fmt.Sprintf("k%03d", i)
		if enc, _ := lv.encoding(c); string(enc) != want || c.state.Key() != want || c.parent != store.ID(i) {
			t.Fatalf("entry %d: enc %q state %q parent %d, want %q with parent %d", i, enc, c.state.Key(), c.parent, want, i)
		}
	}
	lv.reset(0)
	lv.reset(1)
	if got := orderAndGather(lv); len(got) != 0 {
		t.Fatalf("after reset gathered %d candidates, want none", len(got))
	}
}

// orderAndGather orders every worker's set, as each worker does as it
// leaves a level, and merges them.
func orderAndGather(lv *levelScratch) []member {
	for wi := range lv.sets {
		lv.order(wi)
	}
	return lv.gather()
}
