package mapping

import (
	"errors"

	"repro/internal/arbiter/graphlevel"
	"repro/internal/arbiter/spec"
	"repro/internal/graph"
	"repro/internal/ioa"
	"repro/internal/proof"
)

// A Chain is the open three-level hierarchy A₃′ → A₂ → A₁ over one
// tree, fully wired: the level-3 arbiter (A₃ or A₃ʳ) renamed by f₂,
// the graph-level arbiter over the augmented tree (plain and renamed
// by f₁), the specification, and the two possibilities mappings that
// certify the links (Lemmas 46 and 39).
type Chain struct {
	Tree *graph.Tree
	Aug  *graph.Tree
	Sys  Level3

	A1  ioa.Automaton // A₁
	A2  ioa.Automaton // A₂ over 𝒢
	A2r ioa.Automaton // f₁(A₂)
	A3r ioa.Automaton // f₂(A₃)
	// Arb is f₁(f₂(A₃)): the level-3 arbiter speaking the
	// specification's actions, ready to close with users.
	Arb ioa.Automaton
	f1  *ioa.Mapping

	H2Map *H2Map
	H1    *proof.PossMapping // f₁(A₂) → A₁
	H2    *proof.PossMapping // f₂(A₃) → A₂
}

// NewChain builds the hierarchy over the level-3 arbiter sys, as built
// by dist.New, dist.NewWithFaults or dist.NewHardened; A₂ starts with
// the grant arrow h₂ gives sys's start state.
func NewChain(sys Level3) (*Chain, error) {
	asm := sys.Base()
	tr := asm.Tree
	aug, err := graph.Augment(tr)
	if err != nil {
		return nil, err
	}
	h2m := &H2Map{Sys: sys, Aug: aug}
	from, at, err := h2m.StartEdge()
	if err != nil {
		return nil, err
	}
	a2, err := graphlevel.New(aug, from, at)
	if err != nil {
		return nil, err
	}
	f2, err := asm.F2(aug)
	if err != nil {
		return nil, err
	}
	a3r, err := ioa.Rename(asm.A3, f2)
	if err != nil {
		return nil, err
	}
	f1 := graphlevel.F1(aug)
	a2r, err := ioa.Rename(a2, f1)
	if err != nil {
		return nil, err
	}
	arb, err := ioa.Rename(a3r, f1)
	if err != nil {
		return nil, err
	}
	var names spec.Users
	for _, u := range tr.NodesOf(graph.User) {
		names = append(names, tr.Node(u).Name)
	}
	a1 := spec.New(names)
	return &Chain{
		Tree: tr, Aug: aug, Sys: sys,
		A1: a1, A2: a2, A2r: a2r, A3r: a3r, Arb: arb, f1: f1,
		H2Map: h2m, H1: H1(aug, a2r, a1), H2: h2m.H2(a3r, a2),
	}, nil
}

// A Lift is a closed run carried up the chain (Lemma 28): the
// arbiter's part as an execution of A₃′, and the executions of A₂,
// f₁(A₂) and A₁ that correspond to it, as far as the links hold.
type Lift struct {
	X3  *ioa.Execution // f₂(A₃)
	X2  *ioa.Execution // A₂ over 𝒢; nil when h₂ fails
	X2r *ioa.Execution // f₁(A₂); nil when h₂ fails
	X1  *ioa.Execution // A₁; nil when h₂ or h₁ fails
}

// A LinkError is a run that does not lift across one link of the
// chain: Link is "h2" or "h1", Err the possibilities-mapping failure.
type LinkError struct {
	Link string
	Err  error
}

func (e *LinkError) Error() string { return "mapping: " + e.Link + ": " + e.Err.Error() }

func (e *LinkError) Unwrap() error { return e.Err }

// Lift carries x, an execution of a composition whose component 0 is
// c.Arb (the arbiter closed with users), up the hierarchy: it projects
// the arbiter's part, undoes f₁ to get an execution of A₃′, and
// corresponds it through h₂ and then, renamed by f₁, through h₁. When
// a link fails Lift returns what it built below that link together
// with a *LinkError naming it; any other error comes with a nil Lift.
func (c *Chain) Lift(x *ioa.Execution) (*Lift, error) {
	closed, ok := x.Auto.(*ioa.Composite)
	if !ok || len(closed.Components()) == 0 || closed.Components()[0] != c.Arb {
		return nil, errors.New("mapping: Lift needs a run of a composition whose component 0 is the chain's Arb")
	}
	comp, err := closed.ProjectExecution(x, 0)
	if err != nil {
		return nil, err
	}
	l := &Lift{X3: &ioa.Execution{Auto: c.A3r, States: comp.States}}
	for _, act := range comp.Acts {
		l.X3.Acts = append(l.X3.Acts, c.f1.Invert(act))
	}
	x2, err := c.H2.Correspond(l.X3)
	if err != nil {
		return l, &LinkError{Link: "h2", Err: err}
	}
	x2r := &ioa.Execution{Auto: c.A2r, States: x2.States}
	for _, act := range x2.Acts {
		x2r.Acts = append(x2r.Acts, c.f1.Apply(act))
	}
	l.X2, l.X2r = x2, x2r
	x1, err := c.H1.Correspond(x2r)
	if err != nil {
		return l, &LinkError{Link: "h1", Err: err}
	}
	l.X1 = x1
	return l, nil
}
