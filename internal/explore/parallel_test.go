package explore

import (
	"runtime"
	"testing"

	"repro/internal/ioa"
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

func TestCandLess(t *testing.T) {
	s := ioa.KeyState("s")
	a := cand{state: s, parent: 1, act: "x"}
	b := cand{state: s, parent: 2, act: "a"}
	if !candLess(a, b) || candLess(b, a) {
		t.Error("parent ID must dominate among equal-key states")
	}
	c := cand{state: s, parent: 1, act: "y"}
	if !candLess(a, c) || candLess(c, a) {
		t.Error("action breaks parent ties")
	}
	// Under a canonicalizer, merge buckets hold orbit-mates with
	// distinct concrete keys: the least key wins regardless of crumb.
	d := cand{state: ioa.KeyState("r"), parent: 9, act: "z"}
	if !candLess(d, a) || candLess(a, d) {
		t.Error("state key must dominate parent and action")
	}
}
