package bench

// The catalogue of systems the sweeps, ioasim and the reduce batteries
// explore: every named automaton of the repository, closed with its
// users, together with the instruments that apply to it. A hook that
// is nil is the "does not apply" answer; nothing else in the
// repository restates which system has which.

import (
	"cmp"
	"fmt"

	"repro/internal/arbiter/graphlevel"
	"repro/internal/arbiter/spec"
	"repro/internal/arbiter/users"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/figures"
	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/ioa"
	"repro/internal/mutex"
	"repro/internal/reduce"
	"repro/internal/ring"
	"repro/internal/stabilize"
	"repro/internal/store"
)

// Params sizes one build of a catalogue system.
type Params struct {
	// Users is the user (or process, or ring machine) count; UsersSet
	// says it was chosen rather than defaulted, so a hook whose domain
	// explodes can pick its own certified size.
	Users    int
	UsersSet bool
	// GridBase and GridDigits size the grid (0 means 10 and 8).
	GridBase, GridDigits int
	// Inject goes into the channels of a Faulty system; the zero value
	// means the plain reliable ones.
	Inject faults.Injection
}

// A CanonFunc builds the canonicalizer of a system's symmetry group
// at n users.
type CanonFunc func(n int) (store.Canonicalizer, error)

// A Stabilization is a system's self-stabilization case: the
// automaton at n, its legitimacy predicate and the corruption envelope
// (explored, where it needs to be, under opts), and the symmetry the
// certifier may quotient by, if any.
type Stabilization struct {
	Case  func(n int, opts explore.Options) (ioa.Automaton, func(ioa.State) bool, stabilize.Envelope, error)
	Canon CanonFunc
}

// A System is one catalogue entry.
type System struct {
	// Name is the -system name; Build returns the closed system, and
	// Faulty says it routes Params.Inject into the system's channels.
	Name   string
	Build  func(Params) (ioa.Automaton, error)
	Faulty bool
	// Canon is the symmetry exploration may quotient by.
	Canon CanonFunc
	// Induct builds the inductive-certification workload; opts
	// configure the exploration behind a reachable domain.
	Induct func(p Params, opts explore.Options) (InductSystem, error)
	// Stabilize is the self-stabilization case.
	Stabilize *Stabilization
}

// canon adapts a typed canonicalizer constructor to a CanonFunc.
func canon[C store.Canonicalizer](mk func(int) (C, error)) CanonFunc {
	return func(n int) (store.Canonicalizer, error) {
		c, err := mk(n)
		if err != nil {
			return nil, err
		}
		return c, nil
	}
}

// treeArbiter completes the entry of a tree-level arbiter over a
// topology: Build is SystemOn.
func treeArbiter(s System, topology func(int) (*graph.Tree, error), level int, hardened bool) System {
	s.Build = func(p Params) (ioa.Automaton, error) {
		tr, err := topology(p.Users)
		if err != nil {
			return nil, err
		}
		return SystemOn(s.Name, tr, level, hardened, p.Inject)
	}
	return s
}

// figure is the Build of a Chapter 2 figure example.
func figure[A ioa.Automaton](f func() A) func(Params) (ioa.Automaton, error) {
	return func(Params) (ioa.Automaton, error) { return f(), nil }
}

var dijkstraShift = canon(reduce.NewDijkstraShift)

// systems is the catalogue, in presentation order. star is the
// level-3 distributed arbiter over graph.Star: all users on one
// process's neighbor circle, the maximally symmetric level-3 topology
// — rotating the users is an automorphism of the whole algorithm
// (Figure 3.5's round-robin sendgrant scan is rotation-invariant), so
// reduce.StarRotation quotients its state space by exactly n, while
// the binary tree admits no sound symmetry at all.
var systems = []System{
	{Name: "fig21", Build: figure(figures.Fig21)},
	{Name: "fig22", Build: figure(figures.Fig22)},
	{Name: "fig23c", Build: figure(figures.Fig23C)},
	{
		Name:   "arbiter1",
		Build:  func(p Params) (ioa.Automaton, error) { return closedSpec(p.Users) },
		Canon:  canon(reduce.NewArbiterUsers),
		Induct: func(p Params, _ explore.Options) (InductSystem, error) { return InductArbiter1(p.Users) },
	},
	treeArbiter(System{Name: "arbiter2"}, graph.BinaryTree, 2, false),
	treeArbiter(System{Name: "arbiter3", Faulty: true}, graph.BinaryTree, 3, false),
	treeArbiter(System{Name: "arbiter3r", Faulty: true}, graph.BinaryTree, 3, true),
	treeArbiter(System{Name: "star", Canon: canon(reduce.NewStarRotation)}, graph.Star, 3, false),
	{
		Name:      "ring",
		Build:     func(p Params) (ioa.Automaton, error) { return closedRing(p.Users) },
		Canon:     canon(reduce.NewRingRotation),
		Induct:    func(p Params, _ explore.Options) (InductSystem, error) { return InductRing(p.Users) },
		Stabilize: &Stabilization{Case: lelannCrashCell},
	},
	{
		Name:   "mutex",
		Build:  func(Params) (ioa.Automaton, error) { return closedBurns() },
		Induct: func(_ Params, opts explore.Options) (InductSystem, error) { return InductBurns(opts) },
	},
	{
		Name: "dijkstra",
		Build: func(p Params) (ioa.Automaton, error) {
			a, _, _, err := dijkstraCell(p.Users, explore.Options{})
			return a, err
		},
		Canon:     dijkstraShift,
		Induct:    func(p Params, _ explore.Options) (InductSystem, error) { return InductDijkstra(p.Users, p.Users) },
		Stabilize: &Stabilization{Case: dijkstraCell, Canon: dijkstraShift},
	},
	{
		Name: "lamport",
		Build: func(p Params) (ioa.Automaton, error) {
			l, err := mutex.NewLamport(p.Users, 2, 1)
			if err != nil {
				return nil, err
			}
			return l.Auto, nil
		},
		Induct: func(p Params, _ explore.Options) (InductSystem, error) {
			// The candidate domain grows ~10^5-fold per extra process
			// (the 3-process space is ~10^13 states): walk the certified
			// 2-process domain unless the size was chosen.
			if !p.UsersSet {
				p.Users = 2
			}
			return InductLamport(p.Users, 2, 1)
		},
	},
	{
		Name: "grid",
		Build: func(p Params) (ioa.Automaton, error) {
			return grid.New(cmp.Or(p.GridBase, 10), cmp.Or(p.GridDigits, 8))
		},
	},
}

// Systems returns the catalogue in presentation order.
func Systems() []System { return systems }

// SystemNames lists, in catalogue order, the systems has accepts (all
// of them when has is nil).
func SystemNames(has func(System) bool) []string {
	var names []string
	for _, s := range systems {
		if has == nil || has(s) {
			names = append(names, s.Name)
		}
	}
	return names
}

// FindSystem resolves a catalogue name; the error of an unknown name
// lists the whole catalogue.
func FindSystem(name string) (System, error) {
	for _, s := range systems {
		if s.Name == name {
			return s, nil
		}
	}
	return System{}, fmt.Errorf("bench: unknown system %q (registered: %v)", name, SystemNames(nil))
}

// ExploreSystem builds the closed arbiter system at the given level
// (1, 2, or 3) with n users: the specification, the graph-level
// automaton, or the distributed algorithm over reliable channels.
func ExploreSystem(level, n int) (ioa.Automaton, error) {
	return buildNamed(fmt.Sprintf("arbiter%d", level), n)
}

// StarSystem builds the closed level-3 distributed arbiter over
// graph.Star(n).
func StarSystem(n int) (ioa.Automaton, error) { return buildNamed("star", n) }

func buildNamed(name string, n int) (ioa.Automaton, error) {
	s, err := FindSystem(name)
	if err != nil {
		return nil, err
	}
	return s.Build(Params{Users: n})
}

// closed composes an arbiter, already renamed to spec actions, with
// one heavy-load user per name.
func closed(name string, arb ioa.Automaton, names []string) (ioa.Automaton, error) {
	return ioa.Compose(name, append([]ioa.Automaton{arb}, users.Automata(users.HeavyLoad(names))...)...)
}

// closedSpec is the closed level-1 system: the specification arbiter.
func closedSpec(n int) (ioa.Automaton, error) {
	names := spec.DefaultUsers(n)
	return closed("arbiter1", spec.New(names), names)
}

// closedRing is the closed LeLann token-ring arbiter.
func closedRing(n int) (ioa.Automaton, error) {
	names := spec.DefaultUsers(n)
	sys, err := ring.New(names)
	if err != nil {
		return nil, err
	}
	return closed("ring-closed", sys.Arbiter, names)
}

// closedBurns is Burns' two-process mutex over its registers, closed
// with one try/exit user per process.
func closedBurns() (ioa.Automaton, error) {
	sys, err := mutex.New()
	if err != nil {
		return nil, err
	}
	comps := []ioa.Automaton{sys.Mutex}
	for i := 0; i < 2; i++ {
		id := string(rune('0' + i))
		d := ioa.NewDef("User" + id)
		d.Start(ioa.KeyState("rem"))
		d.Output(mutex.Try(i), "u"+id,
			func(s ioa.State) bool { return s.Key() == "rem" },
			func(ioa.State) ioa.State { return ioa.KeyState("trying") })
		d.Input(mutex.Crit(i), func(s ioa.State) ioa.State { return ioa.KeyState("crit") })
		d.Output(mutex.Exit(i), "u"+id,
			func(s ioa.State) bool { return s.Key() == "crit" },
			func(ioa.State) ioa.State { return ioa.KeyState("exited") })
		d.Input(mutex.Rem(i), func(s ioa.State) ioa.State { return ioa.KeyState("rem") })
		comps = append(comps, d.MustBuild())
	}
	return ioa.Compose("mutex-closed", comps...)
}

// SystemOn builds the closed arbiter system at level 2 or 3 over an
// explicit tree topology, renamed to spec actions and composed with
// heavy-load users. At level 3 inj is applied to the channels — the
// zero Injection gives the plain reliable ones, since scheduled
// channels carry per-channel sequence counters in their state, which
// makes the reachable space unbounded for no behavioral gain — and
// hardened selects the retry-hardened A₃ʳ over plain A₃.
func SystemOn(name string, tr *graph.Tree, level int, hardened bool, inj faults.Injection) (ioa.Automaton, error) {
	names := userNames(tr)
	holder := tr.NodesOf(graph.Arbiter)[0]
	if level == 2 {
		a2, err := graphlevel.New(tr, tr.Neighbors(holder)[0], holder)
		if err != nil {
			return nil, err
		}
		arb, err := ioa.Rename(a2, graphlevel.F1(tr))
		if err != nil {
			return nil, err
		}
		return closed(name, arb, names)
	}
	c, err := level3Chain(tr, holder, inj, hardened)
	if err != nil {
		return nil, err
	}
	return closed(name, c.Arb, names)
}

// userNames lists the tree's users in node order.
func userNames(tr *graph.Tree) []string {
	var names []string
	for _, u := range tr.NodesOf(graph.User) {
		names = append(names, tr.Node(u).Name)
	}
	return names
}
