package mapping

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/arbiter/dist"
	"repro/internal/arbiter/users"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/ioa"
	"repro/internal/proof"
	"repro/internal/sim"
)

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
			if err := c.H2.VerifyOpts(explore.Options{Limit: 2000000}); err != nil {
				t.Errorf("h2: %v", err)
			}
			if err := c.H1.VerifyOpts(explore.Options{Limit: 2000000}); err != nil {
				t.Errorf("h1: %v", err)
			}
		})
	}
}

// TestTheorem49EndToEnd is the executable form of Theorem 49: run the
// fully-detailed protocol under fair scheduling with users that return
// the resource, lift the execution to the specification level through
// h₂ and h₁, and check that the lifted execution satisfies E₁'s
// no-lockout goals (every recorded request is eventually granted). It
// is a smoke test of the lift: bench's TestTheorem49Exact decides the
// goals over every fair execution of closed A₃.
func TestTheorem49EndToEnd(t *testing.T) {
	c := buildChain(t, figure32(t), 0)
	names := []string{"u1", "u2", "u3"}
	env := users.HeavyLoad(names)
	closed, err := ioa.Compose("closed", append([]ioa.Automaton{c.Arb}, users.Automata(env)...)...)
	if err != nil {
		t.Fatal(err)
	}
	x, err := sim.Run(closed, &sim.RoundRobin{}, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := c.Lift(x)
	if err != nil {
		t.Fatal(err)
	}
	x1 := l.X1
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

// TestLiftOverEveryLevel3System: Chain.Lift carries a closed fair run
// of the reliable A₃, and of A₃ʳ under a seeded drop+duplicate
// schedule, all the way to A₁; a run of A₃ʳ under the Reorder
// adversary does not lift, and the failure is attributed to h₂.
func TestLiftOverEveryLevel3System(t *testing.T) {
	tr := figure32(t)
	sched, err := faults.NewSchedule(1, faults.Profile{Drop: 0.3, Duplicate: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		sys   func() (Level3, error)
		steps int
		link  string // the link that must fail, "" for none
	}{
		{"A3", func() (Level3, error) { return dist.New(tr, 0) }, 1000, ""},
		{"A3r/drop+dup", func() (Level3, error) { return dist.NewHardened(tr, 0, faults.Injection{Sched: sched}) }, 4000, ""},
		{"A3r/reorder", func() (Level3, error) {
			return dist.NewHardened(tr, 0, faults.Injection{Adversary: []faults.Class{faults.Reorder}})
		}, 4000, "h2"},
	}
	names := []string{"u1", "u2", "u3"}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := tc.sys()
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewChain(sys)
			if err != nil {
				t.Fatal(err)
			}
			closed, err := ioa.Compose("closed", append([]ioa.Automaton{c.Arb}, users.Automata(users.HeavyLoad(names))...)...)
			if err != nil {
				t.Fatal(err)
			}
			x, err := sim.Run(closed, &sim.RoundRobin{}, tc.steps, nil)
			if err != nil {
				t.Fatal(err)
			}
			l, err := c.Lift(x)
			if l == nil {
				t.Fatal(err)
			}
			var broken *LinkError
			switch {
			case tc.link == "" && err != nil:
				t.Fatalf("%d steps do not lift: %v", x.Len(), err)
			case tc.link == "":
				if l.X1.Len() == 0 || l.X3.Len() < l.X1.Len() {
					t.Fatalf("lifted %d steps of A3' to %d of A1", l.X3.Len(), l.X1.Len())
				}
			case !errors.As(err, &broken) || broken.Link != tc.link || !errors.Is(err, proof.ErrNotPossibilities):
				t.Fatalf("want a %s failure, got %v", tc.link, err)
			case l.X2 != nil || l.X1 != nil:
				t.Fatalf("a run refuted at %s lifted past it", tc.link)
			default:
				t.Logf("refuted as expected: %v", err)
			}
		})
	}
}
