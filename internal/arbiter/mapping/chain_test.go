package mapping

import (
	"fmt"
	"testing"

	"repro/internal/arbiter/graphlevel"
	"repro/internal/arbiter/users"
	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/ioa"
	"repro/internal/proof"
	"repro/internal/sim"
)

// graphlevelNew adapts graphlevel.New for test files in this package.
func graphlevelNew(t *testing.T, tr *graph.Tree, from, at int) (*ioa.Prog, error) {
	t.Helper()
	return graphlevel.New(tr, from, at)
}

// TestRefinementChainOnTopologies verifies both possibilities mappings
// over the full reachable state spaces for several graph shapes and
// initial holders (the generality claim of §3.2: the results hold for
// arbitrary connected acyclic graphs).
func TestRefinementChainOnTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("state-space verification is slow")
	}
	cases := []struct {
		name   string
		build  func() (*graph.Tree, error)
		holder int
	}{
		{name: "star3/h0", build: func() (*graph.Tree, error) { return graph.Star(3) }, holder: 0},
		{name: "line2/h0", build: func() (*graph.Tree, error) { return graph.Line(2) }, holder: 0},
		{name: "line2/h1", build: func() (*graph.Tree, error) { return graph.Line(2) }, holder: 1},
		{name: "line3/h1", build: func() (*graph.Tree, error) { return graph.Line(3) }, holder: 1},
		{name: "fig32/h1", build: graph.Figure32, holder: 1},
		{name: "fig32/h2", build: graph.Figure32, holder: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			c := buildChain(t, tr, tc.holder)
			if err := c.h2.VerifyOpts(explore.Options{Limit: 2000000}); err != nil {
				t.Errorf("h2: %v", err)
			}
			if err := c.h1.VerifyOpts(explore.Options{Limit: 2000000}); err != nil {
				t.Errorf("h1: %v", err)
			}
		})
	}
}

// TestTheorem49EndToEnd is the executable form of Theorem 49: run the
// fully-detailed protocol under fair scheduling with users that return
// the resource, lift the execution to the specification level through
// h₂ and h₁, and check that the lifted execution satisfies E₁'s
// no-lockout goals (every recorded request is eventually granted).
func TestTheorem49EndToEnd(t *testing.T) {
	c := buildChain(t, figure32(t), 0)
	f1 := graphlevel.F1(c.aug)
	arb, err := ioa.Rename(c.a3r, f1)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"u1", "u2", "u3"}
	env := users.HeavyLoad(names)
	closed, err := ioa.Compose("closed", append([]ioa.Automaton{arb}, users.Automata(env)...)...)
	if err != nil {
		t.Fatal(err)
	}
	x, err := sim.Run(closed, &sim.RoundRobin{}, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := closed.ProjectExecution(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	x3 := &ioa.Execution{Auto: c.a3r, States: comp.States}
	for _, act := range comp.Acts {
		x3.Acts = append(x3.Acts, f1.Invert(act))
	}
	x2, err := c.h2.Correspond(x3)
	if err != nil {
		t.Fatal(err)
	}
	x2r := &ioa.Execution{Auto: c.a2r, States: x2.States}
	for _, act := range x2.Acts {
		x2r.Acts = append(x2r.Acts, f1.Apply(act))
	}
	x1, err := c.h1.Correspond(x2r)
	if err != nil {
		t.Fatal(err)
	}
	// The level-1 execution must satisfy E1's goals with bounded
	// latency away from the tail (an obligation born just before the
	// cutoff cannot have been served yet).
	var goals []*proof.LeadsTo
	for u := range names {
		goals = append(goals, specGrRes(names, u))
	}
	prefix := x1.Prefix(x1.Len() - 60)
	lat := proof.MaxLatency(prefix, goals)
	for cond, l := range lat {
		if l > 200 {
			t.Errorf("%s latency %d at the spec level", cond, l)
		}
	}
	if pend := proof.Pending(prefix, goals); len(pend) > 0 {
		for _, p := range pend {
			if prefix.Len()-p.From > 100 {
				t.Errorf("obligation %s pending since step %d of %d", p.Cond.Name, p.From, prefix.Len())
			}
		}
	}
}

func specGrRes(names []string, u int) *proof.LeadsTo {
	name := names[u]
	return &proof.LeadsTo{
		Name: fmt.Sprintf("GrRes1(%s)", name),
		S: func(s ioa.State) bool {
			st, ok := s.(interface{ Requesting(int) bool })
			return ok && st.Requesting(u)
		},
		T: func(a ioa.Action) bool { return a == ioa.Act("grant", name) },
	}
}
