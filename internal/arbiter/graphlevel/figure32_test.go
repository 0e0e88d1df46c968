package graphlevel

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/ioa"
)

// TestFigure32Scenario walks the arrow dynamics pictured in Figures
// 3.2 and 3.4 step by step on the paper's example graph: u3 requests,
// the request is forwarded hop by hop toward the root at a1, and the
// resource is granted back along the same path.
func TestFigure32Scenario(t *testing.T) {
	tr, err := graph.Figure32()
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]int)
	for _, n := range tr.Nodes() {
		byName[n.Name] = n.ID
	}
	a1, a2, a3 := byName["a1"], byName["a2"], byName["a3"]
	u1, u3 := byName["u1"], byName["u3"]

	// Resource initially held by a1 (grant arrow on (u1,a1)).
	a2auto, err := New(tr, u1, a1)
	if err != nil {
		t.Fatal(err)
	}
	st := a2auto.Start()[0]
	step := func(act ioa.Action) {
		t.Helper()
		next, ok := ioa.StepTo(a2auto, st, act, 0)
		if !ok {
			t.Fatalf("action %v not enabled from %q", act, st.Key())
		}
		st = next
	}
	cur := func() *State { return st.(*State) }

	if got := cur().Root(); got != a1 {
		t.Fatalf("initial root = %s, want a1", tr.Node(got).Name)
	}

	// u3 requests; the request is forwarded a3 → a2 → a1 (each hop
	// enabled only toward the root, per Lemma 36).
	step(RequestAct(tr, u3, a3))
	if next := ioa.Successors(a2auto, st, RequestAct(tr, a3, u3)); next != nil {
		t.Error("a3 must not forward the request back toward u3 (away from the root)")
	}
	step(RequestAct(tr, a3, a2))
	step(RequestAct(tr, a2, a1))
	if !cur().HasRequest(a2, a1) || !cur().HasRequest(a3, a2) || !cur().HasRequest(u3, a3) {
		t.Fatal("request chain incomplete")
	}
	if !RequestsPointToRoot(st) {
		t.Fatal("Lemma 36 violated mid-scenario")
	}

	// The grant travels back a1 → a2 → a3 → u3, consuming the request
	// arrows one hop at a time.
	step(GrantAct(tr, a1, a2))
	if got := cur().Root(); got != a2 {
		t.Fatalf("root after first grant hop = %s, want a2", tr.Node(got).Name)
	}
	if cur().HasRequest(a2, a1) {
		t.Error("the consumed request arrow must be removed")
	}
	step(GrantAct(tr, a2, a3))
	step(GrantAct(tr, a3, u3))
	if got := cur().Root(); got != u3 {
		t.Fatalf("final root = %s, want u3 (the user holds the resource)", tr.Node(got).Name)
	}
	if !MutualExclusion(st) || !SingleRoot(st) {
		t.Fatal("safety violated at the end of the scenario")
	}

	// u3 returns; the arbiter holds the resource again.
	step(GrantAct(tr, u3, a3))
	if got := cur().Root(); got != a3 {
		t.Fatalf("after return, root = %s, want a3", tr.Node(got).Name)
	}
}
