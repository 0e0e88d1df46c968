package mapping

import (
	"repro/internal/arbiter/dist"
	"repro/internal/arbiter/graphlevel"
	"repro/internal/arbiter/spec"
	"repro/internal/graph"
	"repro/internal/ioa"
	"repro/internal/proof"
)

// A Chain is the open three-level hierarchy A₃′ → A₂ → A₁ over one
// tree, fully wired: the distributed arbiter renamed by f₂, the
// graph-level arbiter over the augmented tree (plain and renamed by
// f₁), the specification, and the two possibilities mappings that
// certify the links (Lemmas 46 and 39).
type Chain struct {
	Tree *graph.Tree
	Aug  *graph.Tree
	Sys  *dist.System

	A1  ioa.Automaton // A₁
	A2  ioa.Automaton // A₂ over 𝒢
	A2r ioa.Automaton // f₁(A₂)
	A3r ioa.Automaton // f₂(A₃)

	H2Map *H2Map
	H1    *proof.PossMapping // f₁(A₂) → A₁
	H2    *proof.PossMapping // f₂(A₃) → A₂
}

// NewChain builds the hierarchy over tr with the resource initially at
// arbiter node holder.
func NewChain(tr *graph.Tree, holder int) (*Chain, error) {
	aug, err := graph.Augment(tr)
	if err != nil {
		return nil, err
	}
	sys, err := dist.New(tr, holder)
	if err != nil {
		return nil, err
	}
	h2m := NewH2Map(sys, aug)
	from, at, err := h2m.StartEdge()
	if err != nil {
		return nil, err
	}
	a2, err := graphlevel.New(aug, from, at)
	if err != nil {
		return nil, err
	}
	f2, err := sys.F2(aug)
	if err != nil {
		return nil, err
	}
	a3r, err := ioa.Rename(sys.A3, f2)
	if err != nil {
		return nil, err
	}
	a2r, err := ioa.Rename(a2, graphlevel.F1(aug))
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
		A1: a1, A2: a2, A2r: a2r, A3r: a3r,
		H2Map: h2m, H1: H1(aug, a2r, a1), H2: h2m.H2(a3r, a2),
	}, nil
}
