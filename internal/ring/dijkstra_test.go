package ring

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/domain"
	"repro/internal/ioa"
)

func mustDijkstra(t *testing.T, n, k int) *DijkstraRing {
	t.Helper()
	r, err := NewDijkstra(n, k)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// allStates materializes the ring's K^n corruption envelope.
func allStates(t *testing.T, r *DijkstraRing) []ioa.State {
	t.Helper()
	all, err := domain.Collect(context.Background(), r.StateDomain())
	if err != nil {
		t.Fatal(err)
	}
	return all
}

func TestNewDijkstraValidation(t *testing.T) {
	if _, err := NewDijkstra(1, 3); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := NewDijkstra(3, 1); err == nil {
		t.Fatal("K=1 accepted")
	}
}

func TestDijkstraStartLegit(t *testing.T) {
	r := mustDijkstra(t, 3, 3)
	starts := r.Auto.Start()
	if len(starts) != 1 {
		t.Fatalf("%d start states", len(starts))
	}
	s := starts[0]
	if s.Key() != "0.0.0" {
		t.Fatalf("start %q", s.Key())
	}
	if got := r.Privileged(s); len(got) != 1 || got[0] != 0 {
		t.Fatalf("privileged at start: %v", got)
	}
	if !r.Legit(s) {
		t.Fatal("all-zeros not legitimate")
	}
}

// TestDijkstraMoves checks both move rules against hand-computed
// transitions.
func TestDijkstraMoves(t *testing.T) {
	r := mustDijkstra(t, 3, 3)
	a := r.Auto

	// All-zeros: only machine 0 is privileged; its move increments.
	s0 := NewDijkstraState([]int{0, 0, 0})
	if nxt := ioa.Successors(a, s0, Move(0)); len(nxt) != 1 || nxt[0].Key() != "1.0.0" {
		t.Fatalf("move(0) from 0.0.0: %v", nxt)
	}
	for i := 1; i < 3; i++ {
		if nxt := ioa.Successors(a, s0, Move(i)); len(nxt) != 0 {
			t.Fatalf("move(%d) enabled at 0.0.0", i)
		}
	}

	// 1.0.0: machine 1 differs from machine 0 — it copies; machine 0
	// sees x[0]=1 != x[2]=0 and is quiescent.
	s1 := NewDijkstraState([]int{1, 0, 0})
	if nxt := ioa.Successors(a, s1, Move(1)); len(nxt) != 1 || nxt[0].Key() != "1.1.0" {
		t.Fatalf("move(1) from 1.0.0: %v", nxt)
	}
	if nxt := ioa.Successors(a, s1, Move(0)); len(nxt) != 0 {
		t.Fatal("move(0) enabled at 1.0.0")
	}

	// Wraparound: 2.2.2 increments machine 0 mod K.
	s2 := NewDijkstraState([]int{2, 2, 2})
	if nxt := ioa.Successors(a, s2, Move(0)); len(nxt) != 1 || nxt[0].Key() != "0.2.2" {
		t.Fatalf("move(0) from 2.2.2: %v", nxt)
	}
}

func TestDijkstraStateAccessors(t *testing.T) {
	s := NewDijkstraState([]int{2, 0, 1})
	if s.Len() != 3 || s.Val(0) != 2 || s.Val(2) != 1 {
		t.Fatalf("accessors on %q", s.Key())
	}
	w := s.With(1, 2)
	if w.Key() != "2.2.1" || s.Key() != "2.0.1" {
		t.Fatalf("With mutated receiver: %q / %q", w.Key(), s.Key())
	}
	vals := s.Vals()
	vals[0] = 9
	if s.Val(0) != 2 {
		t.Fatal("Vals aliases internal slice")
	}
}

// TestDijkstraAllStates checks the envelope enumeration: K^n distinct
// states, odometer order.
func TestDijkstraAllStates(t *testing.T) {
	r := mustDijkstra(t, 3, 3)
	all := allStates(t, r)
	if len(all) != 27 {
		t.Fatalf("%d states, want 27", len(all))
	}
	seen := make(map[string]bool, len(all))
	for _, s := range all {
		if seen[s.Key()] {
			t.Fatalf("duplicate %q", s.Key())
		}
		seen[s.Key()] = true
	}
	if all[0].Key() != "0.0.0" || all[1].Key() != "0.0.1" || all[26].Key() != "2.2.2" {
		t.Fatalf("odometer order broken: %q %q ... %q", all[0].Key(), all[1].Key(), all[26].Key())
	}
}

// TestDijkstraStateDomain checks the streamed domain against its
// materialized collection elementwise, and its Contains implementation
// against membership in the enumeration.
func TestDijkstraStateDomain(t *testing.T) {
	r := mustDijkstra(t, 3, 3)
	d := r.StateDomain()
	i := 0
	all := allStates(t, r)
	if err := d.Visit(context.Background(), func(s ioa.State) error {
		if i >= len(all) {
			return fmt.Errorf("domain visits more than the %d enumerated states", len(all))
		}
		if s.Key() != all[i].Key() {
			return fmt.Errorf("state %d: domain %q, collected %q", i, s.Key(), all[i].Key())
		}
		i++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if i != len(all) {
		t.Fatalf("domain visited %d states, collection has %d", i, len(all))
	}
	c, ok := d.(domain.Container)
	if !ok {
		t.Fatal("StateDomain should implement Contains")
	}
	if !c.Contains(NewDijkstraState([]int{2, 1, 0})) {
		t.Fatal("Contains rejects an in-range vector")
	}
	if c.Contains(NewDijkstraState([]int{0, 0, 3})) {
		t.Fatal("Contains accepts an out-of-range counter")
	}
	if n := domain.Size(d); n != 27 {
		t.Fatalf("Size = %d, want 27", n)
	}
}

// TestDijkstraNoDeadlock checks Dijkstra's lemma that at least one
// machine is privileged in every state, over the full K=2, n=3
// envelope.
func TestDijkstraNoDeadlock(t *testing.T) {
	r := mustDijkstra(t, 3, 2)
	for _, s := range allStates(t, r) {
		if len(r.Privileged(s)) == 0 {
			t.Fatalf("no machine privileged at %q", s.Key())
		}
	}
}

// TestDijkstraPrivilegedWrongShape checks the accessors reject foreign
// states.
func TestDijkstraPrivilegedWrongShape(t *testing.T) {
	r := mustDijkstra(t, 3, 3)
	if got := r.Privileged(ioa.KeyState("x")); got != nil {
		t.Fatalf("privileged on foreign state: %v", got)
	}
	if r.Legit(NewDijkstraState([]int{0, 0})) {
		t.Fatal("legit on wrong-length state")
	}
}

// TestPrivilegedCountAllocFree: the count the induction predicates
// call on every one of the K^n states agrees with the index list
// everywhere and allocates nothing — neither directly nor through
// Legit.
func TestPrivilegedCountAllocFree(t *testing.T) {
	r := mustDijkstra(t, 4, 3)
	all := allStates(t, r)
	for _, s := range all {
		if got, want := r.PrivilegedCount(s), len(r.Privileged(s)); got != want {
			t.Fatalf("PrivilegedCount(%s) = %d, Privileged lists %d", s.Key(), got, want)
		}
	}
	if r.PrivilegedCount(ioa.KeyState("x")) != 0 {
		t.Fatal("a foreign state has privileges")
	}
	sink := 0
	allocs := testing.AllocsPerRun(100, func() {
		for _, s := range all {
			sink += r.PrivilegedCount(s)
			if r.Legit(s) {
				sink++
			}
		}
	})
	if allocs != 0 || sink == 0 {
		t.Fatalf("PrivilegedCount + Legit over %d states: %v allocs per run", len(all), allocs)
	}
}
