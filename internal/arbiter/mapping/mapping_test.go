package mapping

import (
	"context"
	"testing"

	"repro/internal/arbiter/dist"
	"repro/internal/arbiter/graphlevel"
	"repro/internal/arbiter/spec"
	"repro/internal/arbiter/users"
	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/ioa"
	"repro/internal/proof"
	"repro/internal/sim"
)

// buildChain builds the hierarchy over the reliable A₃ on tr.
func buildChain(t *testing.T, tr *graph.Tree, holder int) *Chain {
	t.Helper()
	sys, err := dist.New(tr, holder)
	if err != nil {
		t.Fatalf("dist.New: %v", err)
	}
	c, err := NewChain(sys)
	if err != nil {
		t.Fatalf("NewChain: %v", err)
	}
	return c
}

func figure32(t *testing.T) *graph.Tree {
	t.Helper()
	tr, err := graph.Figure32()
	if err != nil {
		t.Fatalf("Figure32: %v", err)
	}
	return tr
}

// TestExternalSignaturesAlign checks the precondition of every
// satisfaction claim: ext(f2(A3)) = ext(A2) and ext(f1(A2)) = ext(A1).
func TestExternalSignaturesAlign(t *testing.T) {
	c := buildChain(t, figure32(t), 0)
	if !c.A3r.Sig().External().Equal(c.A2.Sig().External()) {
		t.Errorf("ext(f2(A3)) != ext(A2):\n%v\n%v", c.A3r.Sig().External(), c.A2.Sig().External())
	}
	if !c.A2r.Sig().External().Equal(c.A1.Sig().External()) {
		t.Errorf("ext(f1(A2)) != ext(A1):\n%v\n%v", c.A2r.Sig().External(), c.A1.Sig().External())
	}
}

// TestH2IsPossibilitiesMapping mechanically verifies the conditions of
// §2.3.1 for h₂ over the reachable states of A₃′ (Lemma 46).
func TestH2IsPossibilitiesMapping(t *testing.T) {
	c := buildChain(t, figure32(t), 0)
	if err := c.H2.VerifyOpts(explore.Options{Limit: 200000}); err != nil {
		t.Fatalf("h2 verification failed: %v", err)
	}
}

// TestH1IsPossibilitiesMapping mechanically verifies h₁ (Lemma 39).
func TestH1IsPossibilitiesMapping(t *testing.T) {
	c := buildChain(t, figure32(t), 0)
	if err := c.H1.VerifyOpts(explore.Options{Limit: 200000}); err != nil {
		t.Fatalf("h1 verification failed: %v", err)
	}
}

// TestH1MapMakesOneState: on every reachable state of A₂, h₁'s Map
// reads the arrows the users' edges carry by the edge IDs it resolved
// once — the image is the one HasRequest and HasGrant describe — and
// allocates four objects: the flags the state adopts, the state, its
// key and the one-element result.
func TestH1MapMakesOneState(t *testing.T) {
	c := buildChain(t, figure32(t), 0)
	states, err := explore.New(explore.Options{}).Reach(context.Background(), c.A2)
	if err != nil {
		t.Fatal(err)
	}
	users := c.Aug.NodesOf(graph.User)
	for _, st := range states {
		s := st.(*graphlevel.State)
		req, holder := make([]bool, len(users)), -1
		for i, u := range users {
			att := c.Aug.UserAttachment(u)
			req[i] = s.HasRequest(u, att)
			if s.HasGrant(att, u) {
				holder = i
			}
		}
		if got, want := c.H1.Map(s)[0].Key(), spec.NewState(req, holder).Key(); got != want {
			t.Fatalf("h1(%q) = %q, want %q", s.Key(), got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { c.H1.Map(states[len(states)-1]) }); n > 4 {
		t.Errorf("h1's Map allocates %.0f objects, want at most 4", n)
	}
}

// TestInvariantsI1I2 checks the I1/I2 invariants of h₂ on every
// reachable state of A₃.
func TestInvariantsI1I2(t *testing.T) {
	c := buildChain(t, figure32(t), 0)
	states, err := explore.New(explore.Options{Workers: 1, Limit: 200000}).Reach(context.Background(), c.Sys.Base().A3)
	if err != nil {
		t.Fatalf("reach: %v", err)
	}
	t.Logf("reachable states of A3: %d", len(states))
	for _, s := range states {
		if err := c.H2Map.CheckI1(s); err != nil {
			t.Fatalf("I1: %v", err)
		}
		if err := c.H2Map.CheckI2(s); err != nil {
			t.Fatalf("I2: %v", err)
		}
	}
}

// TestCorrespondingExecutions runs a fair execution of the closed
// three-level system at level 3, constructs the corresponding level-2
// and level-1 executions via h₂ and h₁ (Lemma 28), and validates the
// schedule correspondence of Lemma 29 at both links.
func TestCorrespondingExecutions(t *testing.T) {
	c := buildChain(t, figure32(t), 0)
	names := make([]string, 0)
	for _, u := range c.Tree.NodesOf(graph.User) {
		names = append(names, c.Tree.Node(u).Name)
	}
	// Close f1(f2(A3)) with heavy-load users.
	env := users.HeavyLoad(names)
	closed, err := ioa.Compose("closed3", append([]ioa.Automaton{c.Arb}, users.Automata(env)...)...)
	if err != nil {
		t.Fatalf("compose: %v", err)
	}
	x, err := sim.Run(closed, &sim.RoundRobin{}, 400, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if x.Len() < 100 {
		t.Fatalf("run too short: %d steps", x.Len())
	}
	// The arbiter execution (component 0) is an execution (Lemma 1).
	comp, err := closed.ProjectExecution(x, 0)
	if err != nil {
		t.Fatalf("project: %v", err)
	}
	if err := comp.Validate(true); err != nil {
		t.Fatalf("projected execution invalid (Lemma 1): %v", err)
	}
	// Lemma 28 at both links: an execution of f2(A3), and the A2 and
	// A1 executions corresponding to it.
	l, err := c.Lift(x)
	if err != nil {
		t.Fatalf("lift: %v", err)
	}
	x3, x2, x2r, x1 := l.X3, l.X2, l.X2r, l.X1
	if err := x3.Validate(true); err != nil {
		t.Fatalf("x3 invalid: %v", err)
	}
	if err := proof.CheckCorrespondence(x3, x2, c.A2); err != nil {
		t.Fatalf("lemma 29 (h2): %v", err)
	}
	if err := x2.Validate(true); err != nil {
		t.Fatalf("x2 invalid: %v", err)
	}
	if err := proof.CheckCorrespondence(x2r, x1, c.A1); err != nil {
		t.Fatalf("lemma 29 (h1): %v", err)
	}
	if err := x1.Validate(true); err != nil {
		t.Fatalf("x1 invalid: %v", err)
	}
	// The spec-level execution must preserve mutual exclusion
	// structurally and see actual grants under fair scheduling.
	grants := 0
	for _, a := range x1.Acts {
		if a.Base() == "grant" {
			grants++
		}
	}
	if grants == 0 {
		t.Error("no grants in 400 fair steps")
	}
	t.Logf("steps=%d grants at spec level=%d", x.Len(), grants)
}
