package bench

// The closed arbiter systems the sweeps, ioasim and the reduce
// batteries explore: one builder per level of the hierarchy, each
// renamed to spec actions and composed with heavy-load users.

import (
	"fmt"

	"repro/internal/arbiter/dist"
	"repro/internal/arbiter/graphlevel"
	"repro/internal/arbiter/spec"
	"repro/internal/arbiter/users"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/ioa"
)

// ExploreSystem builds the closed arbiter system at the given level
// (1, 2, or 3) with n users: the specification, the graph-level
// automaton, or the distributed algorithm over reliable channels,
// each renamed to spec actions and composed with heavy-load users.
func ExploreSystem(level, n int) (ioa.Automaton, error) {
	switch level {
	case 1:
		names := spec.DefaultUsers(n)
		a1 := spec.New(names)
		comps := append([]ioa.Automaton{a1}, users.Automata(users.HeavyLoad(names))...)
		return ioa.Compose("arbiter1", comps...)
	case 2, 3:
		tr, err := graph.BinaryTree(n)
		if err != nil {
			return nil, err
		}
		return SystemOn(level, tr)
	default:
		return nil, fmt.Errorf("bench: no arbiter level %d", level)
	}
}

// StarSystem builds the closed level-3 distributed arbiter over
// graph.Star(n): a single process automaton with all n users on its
// neighbor circle, composed with heavy-load users. This is the
// maximally symmetric level-3 topology — rotating the users is an
// automorphism of the whole algorithm (Figure 3.5's round-robin
// sendgrant scan is rotation-invariant), so reduce.StarRotation
// quotients its state space by exactly n.
func StarSystem(n int) (ioa.Automaton, error) {
	tr, err := graph.Star(n)
	if err != nil {
		return nil, err
	}
	return SystemOn(3, tr)
}

// SystemOn builds the closed arbiter system at level 2 or 3 over an
// explicit tree topology, renamed to spec actions and composed with
// heavy-load users.
func SystemOn(level int, tr *graph.Tree) (ioa.Automaton, error) {
	var names []string
	for _, u := range tr.NodesOf(graph.User) {
		names = append(names, tr.Node(u).Name)
	}
	holder := tr.NodesOf(graph.Arbiter)[0]
	var arb ioa.Automaton
	switch level {
	case 2:
		a2, err := graphlevel.New(tr, tr.Neighbors(holder)[0], holder)
		if err != nil {
			return nil, err
		}
		arb, err = ioa.Rename(a2, graphlevel.F1(tr))
		if err != nil {
			return nil, err
		}
	case 3:
		aug, err := graph.Augment(tr)
		if err != nil {
			return nil, err
		}
		sys, err := dist.NewWithFaults(tr, holder, faults.Injection{})
		if err != nil {
			return nil, err
		}
		f2, err := sys.F2(aug)
		if err != nil {
			return nil, err
		}
		a3x, err := ioa.Rename(sys.A3, f2)
		if err != nil {
			return nil, err
		}
		arb, err = ioa.Rename(a3x, graphlevel.F1(aug))
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("bench: no tree-level arbiter %d", level)
	}
	comps := append([]ioa.Automaton{arb}, users.Automata(users.HeavyLoad(names))...)
	return ioa.Compose(fmt.Sprintf("arbiter%d", level), comps...)
}
