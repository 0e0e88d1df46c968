package ltl_test

// Satellite regression battery for the graph-level lasso machinery:
// explore.Engine.Graph is checked edge-for-edge against a direct Next
// enumeration over explore.ReferenceReach oracles (the seed
// string-keyed explorer), and every cycle the search returns is
// replayed through Next and re-judged for fairness. The convergence
// pass of internal/stabilize and explore.FindLasso both stand on this
// ground.

import (
	"context"
	"testing"

	"repro/internal/arbiter/spec"
	"repro/internal/arbiter/users"
	"repro/internal/explore"
	"repro/internal/figures"
	"repro/internal/ioa"
	"repro/internal/ltl"
	"repro/internal/reduce"
	"repro/internal/ring"
	"repro/internal/store"
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

// graph is the sequential engine's graph of a.
func graph(t *testing.T, ctx context.Context, a ioa.Automaton) *ltl.StateGraph {
	t.Helper()
	g, err := explore.New(explore.Options{Workers: 1}).Graph(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// referenceGraph is the graph Engine.Graph must build, by the seed
// algorithm: a string-keyed breadth-first search over canonical keys
// (canon nil: the keys themselves) that keeps the first state of each
// orbit it meets and steps it by every action of acts(A) in sorted
// order, one edge per successor, to the node of its orbit. depth is
// each node's distance from the start states.
func referenceGraph(a ioa.Automaton, canon store.Canonicalizer) (states []ioa.State, adj [][]ltl.Edge, depth []int) {
	pos := map[string]int{}
	node := func(s ioa.State, d int) int {
		k := s.Key()
		if canon != nil {
			k = canon.Canonical(s).Key()
		}
		if _, ok := pos[k]; !ok {
			pos[k] = len(states)
			states, depth = append(states, s), append(depth, d)
		}
		return pos[k]
	}
	for _, s := range a.Start() {
		node(s, 0)
	}
	acts := a.Sig().Acts().Sorted()
	for i := 0; i < len(states); i++ {
		var out []ltl.Edge
		for _, act := range acts {
			for _, nxt := range ioa.Successors(a, states[i], act) {
				out = append(out, ltl.Edge{Act: act, To: node(nxt, depth[i]+1)})
			}
		}
		adj = append(adj, out)
	}
	return states, adj, depth
}

// TestBuildGraphMatchesReference checks, for every oracle system, that
// Engine.Graph — at four workers, which it ignores — has exactly the
// edges a direct Next sweep over the ReferenceReach state set
// produces, in sorted-action order, with dense IDs agreeing with
// reference positions, and that every node's witness is a shortest
// execution from a start state to it.
// The canon case is the closed three-process ring under rotation: one
// node per orbit, each step an edge to its successor's orbit.
func TestBuildGraphMatchesReference(t *testing.T) {
	cases := map[string]struct {
		a     ioa.Automaton
		canon store.Canonicalizer
	}{}
	for name, a := range graphOracles(t) {
		cases[name] = struct {
			a     ioa.Automaton
			canon store.Canonicalizer
		}{a, nil}
	}
	names := spec.DefaultUsers(3)
	sys, err := ring.New(names)
	if err != nil {
		t.Fatal(err)
	}
	closed, err := ioa.Compose("ring-closed", append([]ioa.Automaton{sys.Arbiter}, users.Automata(users.HeavyLoad(names))...)...)
	if err != nil {
		t.Fatal(err)
	}
	rotation, err := reduce.NewRingRotation(3)
	if err != nil {
		t.Fatal(err)
	}
	cases["ring3-closed-rotation"] = struct {
		a     ioa.Automaton
		canon store.Canonicalizer
	}{closed, rotation}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			a := c.a
			states, adj, depth := referenceGraph(a, c.canon)
			if c.canon == nil {
				ref, err := explore.ReferenceReach(a, explore.DefaultLimit)
				if err != nil {
					t.Fatal(err)
				}
				if len(ref) != len(states) {
					t.Fatalf("reference sweep has %d states, ReferenceReach %d", len(states), len(ref))
				}
				for i := range ref {
					if ref[i].Key() != states[i].Key() {
						t.Fatalf("reference sweep state %d is %q, ReferenceReach's %q", i, states[i].Key(), ref[i].Key())
					}
				}
			}
			g, err := explore.New(explore.Options{Workers: 4, Canon: c.canon}).Graph(context.Background(), a)
			if err != nil {
				t.Fatal(err)
			}
			if len(g.States) != len(states) {
				t.Fatalf("graph over %d nodes, want %d", len(g.States), len(states))
			}
			for i, s := range states {
				if g.States[i].Key() != s.Key() {
					t.Fatalf("%s node %d is %q, want %q", name, i, g.States[i].Key(), s.Key())
				}
				got, want := g.Out(i), adj[i]
				if len(got) != len(want) {
					t.Fatalf("%s node %d: %d edges, want %d", name, i, len(got), len(want))
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("%s node %d edge %d: %+v, want %+v", name, i, k, got[k], want[k])
					}
				}
				x := g.Witness(i)
				if err := x.Validate(true); err != nil || x.Last().Key() != s.Key() || x.Len() != depth[i] {
					t.Fatalf("%s node %d at depth %d: witness %s ends at %q: %v",
						name, i, depth[i], ioa.TraceString(x.Acts), x.Last().Key(), err)
				}
			}
			// The last node's witness is the one CheckInvariant reports.
			last := g.States[len(g.States)-1]
			v, err := explore.New(explore.Options{Workers: 1, Canon: c.canon}).CheckInvariant(context.Background(), a,
				func(s ioa.State) bool { return s.Key() != last.Key() })
			if err != nil || v == nil {
				t.Fatalf("CheckInvariant to the last node: %v, %v", v, err)
			}
			if got, want := ioa.TraceString(g.Witness(len(g.States)-1).Acts), ioa.TraceString(v.Trace.Acts); got != want {
				t.Fatalf("%s: last node's witness %s, CheckInvariant's %s", name, got, want)
			}
		})
	}
}

// TestCycleAllowedFilter checks that an Allowed filter keeps the
// cycle search off the filtered actions' edges: Figure 2.3's C has an
// α-cycle at its start state, and a search restricted to any one
// action returns only cycles of that action.
func TestCycleAllowedFilter(t *testing.T) {
	a := figures.Fig23C()
	g := graph(t, context.Background(), a)
	for _, only := range a.Sig().Acts().Sorted() {
		allowed := func(act ioa.Action) bool { return act == only }
		_, acts, _, err := g.FindCycle(context.Background(), a, ltl.CycleOptions{Allowed: allowed})
		if err != nil {
			t.Fatal(err)
		}
		if only == figures.Alpha && acts == nil {
			t.Fatal("no α-cycle found")
		}
		for _, act := range acts {
			if act != only {
				t.Fatalf("search restricted to %v returned cycle %s", only, ioa.TraceString(acts))
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
			g := graph(t, context.Background(), a)
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
	g := graph(t, context.Background(), a)
	tokenAt0 := func(i int) bool {
		ts := g.States[i].(*ioa.TupleState)
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
	g := graph(t, context.Background(), a)
	noExit := func(act ioa.Action) bool { return act != exit }
	if _, acts, _, _ := g.FindCycle(context.Background(), a, ltl.CycleOptions{Allowed: noExit}); acts == nil {
		t.Fatal("unfair search missed the spin cycle")
	}
	if _, acts, _, _ := g.FindCycle(context.Background(), a, ltl.CycleOptions{Fair: true, Allowed: noExit}); acts != nil {
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
	g := graph(t, context.Background(), a)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := g.FindCycle(ctx, a, ltl.CycleOptions{}); err == nil {
		t.Fatal("cancelled FindCycle returned nil error")
	}
	if _, err := explore.New(explore.Options{Workers: 1}).Graph(ctx, a); err == nil {
		t.Fatal("cancelled Graph returned nil error")
	}
}
