package graphlevel

import (
	"context"
	"testing"

	"repro/internal/arbiter/users"
	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/ioa"
	"repro/internal/proof"
	"repro/internal/sim"
)

func figA2(t *testing.T) (*graph.Tree, *ioa.Prog) {
	t.Helper()
	tr, err := graph.Figure32()
	if err != nil {
		t.Fatal(err)
	}
	// Initial grant arrow on (u1, a1): arbiter node a1 is the root.
	a2, err := New(tr, 3, 0) // u1 has ID 3, a1 has ID 0
	if err != nil {
		t.Fatal(err)
	}
	return tr, a2
}

func TestA2Validate(t *testing.T) {
	_, a2 := figA2(t)
	if err := ioa.Validate(a2); err != nil {
		t.Fatal(err)
	}
}

func TestA2RejectsUserRoot(t *testing.T) {
	tr, err := graph.Figure32()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(tr, 0, 3); err == nil {
		t.Error("initial root must not be a user")
	}
	if _, err := New(tr, 0, 2); err == nil {
		t.Error("non-adjacent initial edge must be rejected")
	}
}

// TestLemma35SingleRoot and Lemma 36 and mutual exclusion, over the
// full reachable state space of the Figure 3.2 instance.
func TestA2Invariants(t *testing.T) {
	_, a2 := figA2(t)
	checks := []struct {
		name string
		pred func(ioa.State) bool
	}{
		{name: "Lemma35-SingleRoot", pred: SingleRoot},
		{name: "Lemma36-RequestsPointToRoot", pred: RequestsPointToRoot},
		{name: "MutualExclusion", pred: MutualExclusion},
	}
	for _, c := range checks {
		t.Run(c.name, func(t *testing.T) {
			v, err := explore.New(explore.Options{Workers: 1, Limit: 1000000}).CheckInvariant(context.Background(), a2, c.pred)
			if err != nil {
				t.Fatal(err)
			}
			if v != nil {
				t.Fatalf("invariant violated at %q via %v", v.State.Key(), ioa.TraceString(v.Trace.Acts))
			}
		})
	}
}

// TestLemma41BufferInvariant explores A2 over the augmented graph 𝒢.
func TestLemma41BufferInvariant(t *testing.T) {
	tr, err := graph.Figure32()
	if err != nil {
		t.Fatal(err)
	}
	aug, err := graph.Augment(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Root at arbiter a1, grant arrow from its user side.
	a2, err := New(aug, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		pred func(ioa.State) bool
	}{
		{name: "Lemma41-Buffer", pred: BufferInvariant},
		{name: "Lemma35-SingleRoot", pred: SingleRoot},
		{name: "Lemma36-RequestsPointToRoot", pred: RequestsPointToRoot},
	} {
		t.Run(c.name, func(t *testing.T) {
			v, err := explore.New(explore.Options{Workers: 1, Limit: 2000000}).CheckInvariant(context.Background(), a2, c.pred)
			if err != nil {
				t.Fatal(err)
			}
			if v != nil {
				t.Fatalf("violated at %q via %v", v.State.Key(), ioa.TraceString(v.Trace.Acts))
			}
		})
	}
}

// closedA2 composes f1(A2) with user automata.
func closedA2(t *testing.T, tr *graph.Tree, a2 *ioa.Prog, env []*ioa.Prog) *ioa.Composite {
	t.Helper()
	renamed, err := ioa.Rename(a2, F1(tr))
	if err != nil {
		t.Fatal(err)
	}
	comps := append([]ioa.Automaton{renamed}, users.Automata(env)...)
	closed, err := ioa.Compose("closedA2", comps...)
	if err != nil {
		t.Fatal(err)
	}
	return closed
}

func userNames(tr *graph.Tree) []string {
	ids := tr.NodesOf(graph.User)
	out := make([]string, len(ids))
	for i, u := range ids {
		out[i] = tr.Node(u).Name
	}
	return out
}

// TestCorollary38NoLockout: along fair executions (which satisfy C2 by
// Lemma 42's analogue) with users that return the resource, every
// requesting user is granted — on several topologies.
func TestCorollary38NoLockout(t *testing.T) {
	builders := map[string]func() (*graph.Tree, error){
		"figure32": graph.Figure32,
		"line4":    func() (*graph.Tree, error) { return graph.Line(4) },
		"star5":    func() (*graph.Tree, error) { return graph.Star(5) },
		"binary6":  func() (*graph.Tree, error) { return graph.BinaryTree(6) },
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			tr, err := build()
			if err != nil {
				t.Fatal(err)
			}
			holder := tr.NodesOf(graph.Arbiter)[0]
			a2, err := New(tr, tr.Neighbors(holder)[0], holder)
			if err != nil {
				t.Fatal(err)
			}
			env := users.HeavyLoad(userNames(tr))
			closed := closedA2(t, tr, a2, env)
			x, err := sim.Run(closed, &sim.RoundRobin{}, 1500, nil)
			if err != nil {
				t.Fatal(err)
			}
			grants := make(map[string]int)
			for _, act := range x.Acts {
				if act.Base() == "grant" && len(act.Params()) == 1 {
					grants[act.Params()[0]]++
				}
			}
			for _, u := range userNames(tr) {
				if grants[u] < 2 {
					t.Errorf("user %s granted %d times; lockout?", u, grants[u])
				}
			}
			// C2 conditions must resolve promptly along the run.
			proj, err := closed.ProjectExecution(x, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Undo f1 renaming for condition evaluation over A2 states:
			// conditions only inspect states and internal actions, and
			// f1 renames only user-edge actions; rebuild action list.
			f1 := F1(tr)
			x2 := &ioa.Execution{Auto: a2, States: proj.States}
			for _, act := range proj.Acts {
				x2.Acts = append(x2.Acts, f1.Invert(act))
			}
			lat := proof.MaxLatency(x2.Prefix(x2.Len()-200), C2(tr))
			for cond, l := range lat {
				if l > 400 {
					t.Errorf("condition %s latency %d", cond, l)
				}
			}
		})
	}
}

// TestStarvedNodeViolatesC2: failure injection — a scheduler that
// starves one arbiter node's class leaves FwdReq2/FwdGr2 obligations
// pending and users unserved, demonstrating the conditions are
// load-bearing.
func TestStarvedNodeViolatesC2(t *testing.T) {
	tr, err := graph.Figure32()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := New(tr, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	env := users.HeavyLoad(userNames(tr))
	closed := closedA2(t, tr, a2, env)
	starve := &sim.Starve{
		Victim:   func(name string) bool { return name == "A2/a2" },
		Fallback: &sim.RoundRobin{},
	}
	x, err := sim.Run(closed, starve, 600, nil)
	if err != nil {
		t.Fatal(err)
	}
	// u2 and u3 hang off a2/a3; with a2 frozen after the token leaves
	// a1's side, eventually nothing moves for them.
	grants := make(map[string]int)
	for _, act := range x.Acts {
		if act.Base() == "grant" && len(act.Params()) == 1 {
			grants[act.Params()[0]]++
		}
	}
	if grants["u3"] > 1 {
		t.Errorf("u3 should starve with a2 frozen, got %d grants", grants["u3"])
	}
	proj, err := closed.ProjectExecution(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	f1 := F1(tr)
	x2 := &ioa.Execution{Auto: a2, States: proj.States}
	for _, act := range proj.Acts {
		x2.Acts = append(x2.Acts, f1.Invert(act))
	}
	if len(proof.Pending(x2, C2(tr))) == 0 {
		t.Error("starving a node must leave C2 obligations pending")
	}
}

// TestCombinedVariantKeepsInvariants: the §3.4 combined-message
// optimization preserves the safety invariants.
func TestCombinedVariantKeepsInvariants(t *testing.T) {
	tr, err := graph.Figure32()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := NewWithOptions(tr, 3, 0, Options{CombineGrantRequest: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		pred func(ioa.State) bool
	}{
		{name: "Lemma35", pred: SingleRoot},
		{name: "Lemma36", pred: RequestsPointToRoot},
		{name: "Mutex", pred: MutualExclusion},
	} {
		v, err := explore.New(explore.Options{Workers: 1, Limit: 1000000}).CheckInvariant(context.Background(), a2, c.pred)
		if err != nil {
			t.Fatal(err)
		}
		if v != nil {
			t.Fatalf("%s violated at %q via %v", c.name, v.State.Key(), ioa.TraceString(v.Trace.Acts))
		}
	}
}

// TestGrantRoundRobinOrder: the (w,v] window rule serves the first
// requester after the grant's source in the node's neighbor order.
func TestGrantRoundRobinOrder(t *testing.T) {
	tr, err := graph.Star(3) // a0 with users u0,u1,u2 in order
	if err != nil {
		t.Fatal(err)
	}
	a0 := 0
	u := tr.NodesOf(graph.User)
	a2, err := New(tr, u[0], a0) // grant arrow from u0's side
	if err != nil {
		t.Fatal(err)
	}
	s := a2.Start()[0]
	// All three users request.
	for _, ui := range u {
		s, _ = ioa.StepTo(a2, s, RequestAct(tr, ui, a0), 0)
	}
	// Only grant(a0,u1) — the first requester after u0 — is enabled.
	enabled := a2.Enabled(s)
	if len(enabled) != 1 || enabled[0] != GrantAct(tr, a0, u[1]) {
		t.Fatalf("enabled = %v, want only grant(a0,u1)", enabled)
	}
	// Serve u1, have it return; next up is u2.
	s, _ = ioa.StepTo(a2, s, GrantAct(tr, a0, u[1]), 0)
	s, _ = ioa.StepTo(a2, s, GrantAct(tr, u[1], a0), 0)
	enabled = a2.Enabled(s)
	if len(enabled) != 1 || enabled[0] != GrantAct(tr, a0, u[2]) {
		t.Fatalf("after u1 returns, enabled = %v, want grant(a0,u2)", enabled)
	}
}

// TestUserReturnClearsPendingRequestArrow: the grant(u,a) input also
// clears a pending request arrow on (a,u) (the arbiter's
// return-the-resource request).
func TestUserReturnClearsPendingRequestArrow(t *testing.T) {
	tr, err := graph.Star(2)
	if err != nil {
		t.Fatal(err)
	}
	a0, u := 0, tr.NodesOf(graph.User)
	a2, err := New(tr, u[0], a0)
	if err != nil {
		t.Fatal(err)
	}
	s := a2.Start()[0].(*State)
	// u0 requests and is granted.
	st, _ := ioa.StepTo(a2, s, RequestAct(tr, u[0], a0), 0)
	st, _ = ioa.StepTo(a2, st, GrantAct(tr, a0, u[0]), 0)
	// u1 requests; a0 forwards a request toward the root (u0).
	st, _ = ioa.StepTo(a2, st, RequestAct(tr, u[1], a0), 0)
	st2 := st.(*State)
	if !st2.HasGrant(a0, u[0]) {
		t.Fatal("u0 should hold the resource")
	}
	next := ioa.Successors(a2, st, RequestAct(tr, a0, u[0]))
	if len(next) == 0 {
		t.Fatal("a0 must be able to ask u0 to return")
	}
	st = next[0]
	if !st.(*State).HasRequest(a0, u[0]) {
		t.Fatal("request arrow missing on (a0,u0)")
	}
	// u0 returns: both grant and request arrows on (a0,u0) clear.
	st, _ = ioa.StepTo(a2, st, GrantAct(tr, u[0], a0), 0)
	final := st.(*State)
	if final.HasRequest(a0, u[0]) || final.HasGrant(a0, u[0]) {
		t.Error("return must clear the (a0,u0) arrows")
	}
	if !final.HasGrant(u[0], a0) {
		t.Error("return must place the grant arrow on (u0,a0)")
	}
}

// TestBogusUserReturnIgnored: grant(u,a) from a non-holder is a no-op.
func TestBogusUserReturnIgnored(t *testing.T) {
	tr, err := graph.Star(2)
	if err != nil {
		t.Fatal(err)
	}
	a0, u := 0, tr.NodesOf(graph.User)
	a2, err := New(tr, u[0], a0)
	if err != nil {
		t.Fatal(err)
	}
	s := a2.Start()[0]
	st, _ := ioa.StepTo(a2, s, GrantAct(tr, u[1], a0), 0)
	if st.Key() != s.Key() {
		t.Error("bogus return must not change the state")
	}
}

// TestIdleInputReturnsItsState: over every reachable state of A₂ at
// four users, an input that moves no arrow — request(u,a) with the
// request arrow already on (u,a), grant(u,a) from a user that does not
// hold the resource — yields the state it was given, pointer-equal.
func TestIdleInputReturnsItsState(t *testing.T) {
	tr, err := graph.BinaryTree(4)
	if err != nil {
		t.Fatal(err)
	}
	aug, err := graph.Augment(tr)
	if err != nil {
		t.Fatal(err)
	}
	holder := aug.NodesOf(graph.Arbiter)[0]
	a2, err := New(aug, aug.Neighbors(holder)[0], holder)
	if err != nil {
		t.Fatal(err)
	}
	reach, err := explore.New(explore.Options{Workers: 1}).Reach(context.Background(), a2)
	if err != nil {
		t.Fatal(err)
	}
	idle := map[string]int{}
	for _, st := range reach {
		s := st.(*State)
		for _, u := range aug.NodesOf(graph.User) {
			a := aug.UserAttachment(u)
			for _, c := range []struct {
				act  ioa.Action
				idle bool
			}{
				{RequestAct(aug, u, a), s.HasRequest(u, a)},
				{GrantAct(aug, u, a), !s.HasGrant(a, u)},
			} {
				if !c.idle {
					continue
				}
				idle[c.act.Base()]++
				if got := ioa.Successors(a2, s, c.act); len(got) != 1 || got[0] != st {
					t.Fatalf("%s from %s: yields %d state(s), not the state itself", c.act, s.Key(), len(got))
				}
			}
		}
	}
	if idle["request"] == 0 || idle["grant"] == 0 {
		t.Fatalf("idle inputs checked over %d states: %v, want both kinds", len(reach), idle)
	}
}
