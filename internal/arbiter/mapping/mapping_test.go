package mapping

import (
	"context"
	"testing"

	"repro/internal/arbiter/dist"
	"repro/internal/arbiter/graphlevel"
	"repro/internal/arbiter/users"
	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/ioa"
	"repro/internal/proof"
	"repro/internal/sim"
)

// chain bundles the three levels over one tree, fully wired.
type chain struct {
	tree *graph.Tree
	aug  *graph.Tree
	sys  *dist.System

	a1  ioa.Automaton // A1
	a2  ioa.Automaton // A2 over 𝒢
	a2r ioa.Automaton // f1(A2)
	a3r ioa.Automaton // f2(A3)

	h2m *H2Map
	h1  *proof.PossMapping
	h2  *proof.PossMapping
}

func buildChain(t *testing.T, tr *graph.Tree, holder int) *chain {
	t.Helper()
	c, err := NewChain(tr, holder)
	if err != nil {
		t.Fatalf("NewChain: %v", err)
	}
	return &chain{tree: c.Tree, aug: c.Aug, sys: c.Sys, a1: c.A1, a2: c.A2, a2r: c.A2r, a3r: c.A3r,
		h2m: c.H2Map, h1: c.H1, h2: c.H2}
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
	if !c.a3r.Sig().External().Equal(c.a2.Sig().External()) {
		t.Errorf("ext(f2(A3)) != ext(A2):\n%v\n%v", c.a3r.Sig().External(), c.a2.Sig().External())
	}
	if !c.a2r.Sig().External().Equal(c.a1.Sig().External()) {
		t.Errorf("ext(f1(A2)) != ext(A1):\n%v\n%v", c.a2r.Sig().External(), c.a1.Sig().External())
	}
}

// TestH2IsPossibilitiesMapping mechanically verifies the conditions of
// §2.3.1 for h₂ over the reachable states of A₃′ (Lemma 46).
func TestH2IsPossibilitiesMapping(t *testing.T) {
	c := buildChain(t, figure32(t), 0)
	if err := c.h2.VerifyOpts(explore.Options{Limit: 200000}); err != nil {
		t.Fatalf("h2 verification failed: %v", err)
	}
}

// TestH1IsPossibilitiesMapping mechanically verifies h₁ (Lemma 39).
func TestH1IsPossibilitiesMapping(t *testing.T) {
	c := buildChain(t, figure32(t), 0)
	if err := c.h1.VerifyOpts(explore.Options{Limit: 200000}); err != nil {
		t.Fatalf("h1 verification failed: %v", err)
	}
}

// TestInvariantsI1I2 checks the I1/I2 invariants of h₂ on every
// reachable state of A₃.
func TestInvariantsI1I2(t *testing.T) {
	c := buildChain(t, figure32(t), 0)
	states, err := explore.New(explore.Options{Workers: 1, Limit: 200000}).Reach(context.Background(), c.sys.A3)
	if err != nil {
		t.Fatalf("reach: %v", err)
	}
	t.Logf("reachable states of A3: %d", len(states))
	for _, s := range states {
		if err := c.h2m.CheckI1(s); err != nil {
			t.Fatalf("I1: %v", err)
		}
		if err := c.h2m.CheckI2(s); err != nil {
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
	for _, u := range c.tree.NodesOf(graph.User) {
		names = append(names, c.tree.Node(u).Name)
	}
	// Close f1(f2(A3)) with heavy-load users.
	f1 := graphlevel.F1(c.aug)
	a3Full, err := ioa.Rename(c.a3r, f1)
	if err != nil {
		t.Fatalf("rename: %v", err)
	}
	env := users.HeavyLoad(names)
	closed, err := ioa.Compose("closed3", append([]ioa.Automaton{a3Full}, users.Automata(env)...)...)
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
	// Project out the arbiter execution (component 0) and undo the f1
	// renaming to get an execution of f2(A3).
	comp, err := closed.ProjectExecution(x, 0)
	if err != nil {
		t.Fatalf("project: %v", err)
	}
	if err := comp.Validate(true); err != nil {
		t.Fatalf("projected execution invalid (Lemma 1): %v", err)
	}
	x3 := &ioa.Execution{Auto: c.a3r, States: comp.States}
	for _, a := range comp.Acts {
		x3.Acts = append(x3.Acts, f1.Invert(a))
	}
	if err := x3.Validate(true); err != nil {
		t.Fatalf("x3 invalid: %v", err)
	}
	// Lemma 28 at link 3→2.
	x2, err := c.h2.Correspond(x3)
	if err != nil {
		t.Fatalf("correspond h2: %v", err)
	}
	if err := proof.CheckCorrespondence(x3, x2, c.a2); err != nil {
		t.Fatalf("lemma 29 (h2): %v", err)
	}
	if err := x2.Validate(true); err != nil {
		t.Fatalf("x2 invalid: %v", err)
	}
	// Rename x2 to f1(A2) and correspond at link 2→1.
	x2r := &ioa.Execution{Auto: c.a2r, States: x2.States}
	for _, a := range x2.Acts {
		x2r.Acts = append(x2r.Acts, f1.Apply(a))
	}
	x1, err := c.h1.Correspond(x2r)
	if err != nil {
		t.Fatalf("correspond h1: %v", err)
	}
	if err := proof.CheckCorrespondence(x2r, x1, c.a1); err != nil {
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
