package ltl_test

// Satellite regression battery for the graph-level lasso machinery:
// BuildGraphCanon adjacency is checked edge-for-edge against a direct Next
// enumeration over explore.ReferenceReach oracles (the seed
// string-keyed explorer), and every cycle the search returns is
// replayed through Next and re-judged for fairness. The convergence
// pass of internal/stabilize and explore.FindLasso both stand on this
// ground.

import (
	"context"
	"testing"

	"repro/internal/arbiter/spec"
	"repro/internal/explore"
	"repro/internal/figures"
	"repro/internal/ioa"
	"repro/internal/ltl"
	"repro/internal/ring"
)

// graphOracles yields the battery systems: the paper's figures plus
// the LeLann ring composite.
func graphOracles(t *testing.T) map[string]ioa.Automaton {
	t.Helper()
	sys, err := ring.New(spec.DefaultUsers(3))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]ioa.Automaton{
		"fig21":  figures.Fig21(),
		"fig22":  figures.Fig22(),
		"fig23c": figures.Fig23C(),
		"ring3":  sys.Composite,
	}
}

// TestBuildGraphMatchesReference checks, for every oracle system, that
// BuildGraphCanon over the ReferenceReach state set has exactly the edges a
// direct Next sweep produces, in sorted-action order, with dense IDs
// agreeing with reference positions.
func TestBuildGraphMatchesReference(t *testing.T) {
	for name, a := range graphOracles(t) {
		t.Run(name, func(t *testing.T) {
			states, err := explore.ReferenceReach(a, explore.DefaultLimit)
			if err != nil {
				t.Fatal(err)
			}
			g, err := ltl.BuildGraphCanon(context.Background(), a, states, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(g.Adj) != len(states) {
				t.Fatalf("adjacency over %d nodes, want %d", len(g.Adj), len(states))
			}
			pos := make(map[string]int, len(states))
			for i, s := range states {
				pos[s.Key()] = i
			}
			acts := a.Sig().Acts().Sorted()
			for i, s := range states {
				var want []ltl.Edge
				for _, act := range acts {
					for _, nxt := range ioa.Successors(a, s, act) {
						j, ok := pos[nxt.Key()]
						if !ok {
							t.Fatalf("%s: successor %q of reachable state %q not in reference set",
								name, nxt.Key(), s.Key())
						}
						want = append(want, ltl.Edge{Act: act, To: j})
					}
				}
				got := g.Adj[i]
				if len(got) != len(want) {
					t.Fatalf("%s node %d: %d edges, want %d", name, i, len(got), len(want))
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("%s node %d edge %d: %+v, want %+v", name, i, k, got[k], want[k])
					}
				}
			}
		})
	}
}

// TestBuildGraphAllowedFilter checks that an allowed filter removes
// exactly the filtered actions' edges.
func TestBuildGraphAllowedFilter(t *testing.T) {
	a := figures.Fig23C()
	states, err := explore.ReferenceReach(a, explore.DefaultLimit)
	if err != nil {
		t.Fatal(err)
	}
	allowed := func(act ioa.Action) bool { return act == figures.Alpha }
	g, err := ltl.BuildGraphCanon(context.Background(), a, states, allowed, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, edges := range g.Adj {
		for _, e := range edges {
			if e.Act != figures.Alpha {
				t.Fatalf("node %d: filtered action %v survived", i, e.Act)
			}
		}
	}
}

// checkCycleValid replays a cycle against Next and re-derives the
// fairness verdict.
func checkCycleValid(t *testing.T, a ioa.Automaton, g *ltl.StateGraph, start int, acts []ioa.Action, nodes []int) {
	t.Helper()
	if len(nodes) != len(acts)+1 {
		t.Fatalf("cycle has %d nodes for %d actions", len(nodes), len(acts))
	}
	if nodes[0] != start || nodes[len(nodes)-1] != start {
		t.Fatalf("cycle nodes %v do not begin and end at start %d", nodes, start)
	}
	for i, act := range acts {
		from, to := g.States[nodes[i]], g.States[nodes[i+1]]
		found := false
		for _, nxt := range ioa.Successors(a, from, act) {
			if nxt.Key() == to.Key() {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("cycle step %d: no transition %q --%v--> %q", i, from.Key(), act, to.Key())
		}
	}
}

// TestFindCycleAgainstReference runs the cycle search over every
// oracle system, in both fairness modes, validating any cycle found
// and cross-checking the fairness verdict with FairSustainable.
func TestFindCycleAgainstReference(t *testing.T) {
	for name, a := range graphOracles(t) {
		t.Run(name, func(t *testing.T) {
			states, err := explore.ReferenceReach(a, explore.DefaultLimit)
			if err != nil {
				t.Fatal(err)
			}
			g, err := ltl.BuildGraphCanon(context.Background(), a, states, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, fair := range []bool{false, true} {
				start, acts, nodes, err := g.FindCycle(context.Background(), a, ltl.CycleOptions{Fair: fair})
				if err != nil {
					t.Fatal(err)
				}
				if acts == nil {
					continue
				}
				checkCycleValid(t, a, g, start, acts, nodes)
				if fair && !ltl.FairSustainable(a, acts, g.PathStates(nodes)) {
					t.Fatalf("fair search returned unfair cycle %v", acts)
				}
			}
		})
	}
}

// TestFindCycleWithin checks the Within restriction: the ring's
// request/return self-loops give every composite state cycles, but
// restricting the search to nodes where the token sits at process 0
// must exclude any cycle that moves the token.
func TestFindCycleWithin(t *testing.T) {
	sys, err := ring.New(spec.DefaultUsers(3))
	if err != nil {
		t.Fatal(err)
	}
	a := sys.Composite
	states, err := explore.ReferenceReach(a, explore.DefaultLimit)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ltl.BuildGraphCanon(context.Background(), a, states, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tokenAt0 := func(i int) bool {
		ts := states[i].(*ioa.TupleState)
		return ts.At(0).(*ring.ProcState).HasToken()
	}
	start, acts, nodes, err := g.FindCycle(context.Background(), a, ltl.CycleOptions{Within: tokenAt0})
	if err != nil {
		t.Fatal(err)
	}
	if acts == nil {
		t.Fatal("no cycle found within token-at-0 region (request/return loops expected)")
	}
	checkCycleValid(t, a, g, start, acts, nodes)
	for _, n := range nodes {
		if !tokenAt0(n) {
			t.Fatalf("cycle node %d leaves the Within region", n)
		}
	}
}

// TestFindCycleFairRejectsUnfair builds an automaton whose only cycle
// starves an always-enabled class: two states flip via class "spin"
// while class "exit" stays enabled and unperformed. The unfair search
// must find the cycle; the fair search must reject it.
func TestFindCycleFairRejectsUnfair(t *testing.T) {
	spin, exit := ioa.Act("spin"), ioa.Act("exit")
	d := ioa.NewDef("unfair-loop")
	d.Start(ioa.KeyState("a"))
	d.Internal(spin, "spin",
		func(s ioa.State) bool { return s.Key() == "a" || s.Key() == "b" },
		func(s ioa.State) ioa.State {
			if s.Key() == "a" {
				return ioa.KeyState("b")
			}
			return ioa.KeyState("a")
		})
	d.Internal(exit, "exit",
		func(s ioa.State) bool { return s.Key() == "a" || s.Key() == "b" },
		func(s ioa.State) ioa.State { return ioa.KeyState("done") })
	a := d.MustBuild()
	states, err := explore.ReferenceReach(a, explore.DefaultLimit)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ltl.BuildGraphCanon(context.Background(), a, states, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	noExit := func(act ioa.Action) bool { return act != exit }
	gNoExit, err := ltl.BuildGraphCanon(context.Background(), a, states, noExit, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, acts, _, _ := gNoExit.FindCycle(context.Background(), a, ltl.CycleOptions{}); acts == nil {
		t.Fatal("unfair search missed the spin cycle")
	}
	if _, acts, _, _ := gNoExit.FindCycle(context.Background(), a, ltl.CycleOptions{Fair: true}); acts != nil {
		t.Fatalf("fair search accepted the exit-starving cycle %v", acts)
	}
	// With exit edges allowed, a fair cycle exists only if it performs
	// or disables every class; "done" has everything disabled, but no
	// cycle reaches it — still no fair cycle.
	if _, acts, _, _ := g.FindCycle(context.Background(), a, ltl.CycleOptions{Fair: true}); acts != nil {
		t.Fatalf("fair search accepted %v despite enabled unperformed class", acts)
	}
}

// TestFindCycleCancellation checks the context is honored.
func TestFindCycleCancellation(t *testing.T) {
	a := figures.Fig23C()
	states, err := explore.ReferenceReach(a, explore.DefaultLimit)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ltl.BuildGraphCanon(context.Background(), a, states, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := g.FindCycle(ctx, a, ltl.CycleOptions{}); err == nil {
		t.Fatal("cancelled FindCycle returned nil error")
	}
	if _, err := ltl.BuildGraphCanon(ctx, a, states, nil, nil); err == nil {
		t.Fatal("cancelled BuildGraphCanon returned nil error")
	}
}
