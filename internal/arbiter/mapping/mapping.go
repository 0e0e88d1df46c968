// Package mapping implements the possibilities mappings of Chapter 3:
// h₁ from A₂′ (the renamed graph-level arbiter) to the specification
// A₁ (§3.2.5), and h₂ from A₃′ (the renamed distributed arbiter, A₃
// or the retry-hardened A₃ʳ) to A₂ over the buffer-augmented graph 𝒢
// (§3.3.6), together with the invariants I1 and I2 that make h₂
// well-defined; and the Chain that wires the three levels and lifts a
// run through them.
package mapping

import (
	"fmt"
	"sync"

	"repro/internal/arbiter/dist"
	"repro/internal/arbiter/graphlevel"
	"repro/internal/arbiter/spec"
	"repro/internal/graph"
	"repro/internal/ioa"
	"repro/internal/proof"
)

// H1 builds the possibilities mapping h₁ from a2r = f₁(A₂) to a1 =
// A₁ (§3.2.5). The mapping is functional: the state t = h₁(s) has
//
//	u ∈ requesters  iff request ∈ arrows(u,a)
//	holder = u      iff grant ∈ arrows(a,u)
//	holder = a      iff no user-bound edge carries a grant arrow
func H1(t *graph.Tree, a2r, a1 ioa.Automaton) *proof.PossMapping {
	e := userEdges(t)
	return &proof.PossMapping{
		A: a2r,
		B: a1,
		Map: func(st ioa.State) []ioa.State {
			s, ok := st.(*graphlevel.State)
			if !ok {
				return nil
			}
			return []ioa.State{e.mapH1(s)}
		},
	}
}

// MapH1 applies the h₁ state function directly (for use in simulations
// that track all three levels at once).
func MapH1(t *graph.Tree, st *graphlevel.State) *spec.State {
	return userEdges(t).mapH1(st)
}

// h1Edges is what the h₁ state function reads for each user of t, in
// ascending order: the IDs of the edges (u, att) and (att, u) between
// the user and the node it is attached to, -1 where t has no such edge.
type h1Edges struct{ req, grant []int }

// userEdges resolves the users' edges of t once.
func userEdges(t *graph.Tree) h1Edges {
	id := func(v, w int) int {
		if i, ok := t.EdgeID(v, w); ok {
			return i
		}
		return -1
	}
	users := t.NodesOf(graph.User)
	e := h1Edges{req: make([]int, len(users)), grant: make([]int, len(users))}
	for i, u := range users {
		att := t.UserAttachment(u)
		e.req[i], e.grant[i] = id(u, att), id(att, u)
	}
	return e
}

// mapH1 is the h₁ state function: one flag slice, adopted by the state
// it builds.
func (e h1Edges) mapH1(st *graphlevel.State) *spec.State {
	req := make([]bool, len(e.req))
	holder := -1
	for i := range req {
		req[i] = e.req[i] >= 0 && st.RequestAt(e.req[i])
		if e.grant[i] >= 0 && st.GrantAt(e.grant[i]) {
			holder = i
		}
	}
	return spec.AdoptState(req, holder)
}

// H2Map is the state function underlying h₂ (§3.3.6): it rebuilds the
// arrow sets of A₂ over 𝒢 from the process states of a level-3
// arbiter using conditions U1–U4 and A1–A4.
//
// It serves both level-3 arbiters, and clause A4 — "a grant is in
// transit on channel (a,a′)" — is the one place they differ (Level3's
// InTransit). Over A₃ it reads M's undelivered messages. Over the
// retry-hardened A₃ʳ it reads the link automata's abstract in-transit
// predicate, which never consults the packet network's queues; that is
// what keeps h₂ a possibilities mapping in the presence of faults. Packet drops, duplicate deliveries,
// retransmissions and stale-ack arrivals all leave the image state
// unchanged (mapping condition 2(b) with an empty corresponding A₂
// execution fragment), while the external send/receive actions step A₂
// exactly as they do for A₃. The alternating-bit links need channels
// that are FIFO up to loss and duplication: under reordering or delay
// injections the mapping is expected to fail, and the chaos harness
// shows it. A₃ʳ's state space is unbounded (retransmission counters
// in the packet network), so check h₂ over it with Correspond along
// sampled fair executions (Chain.Lift) rather than exhaustively.
type H2Map struct {
	// Sys is the level-3 arbiter (over G).
	Sys Level3
	// Aug is the buffer-augmented graph 𝒢.
	Aug *graph.Tree

	// The 𝒢 edges Apply writes, resolved from Sys and Aug on its first
	// call: edges[p][i] for the p-th process of the assembly's Order
	// and its i-th neighbor; err if 𝒢 lacks one.
	once  sync.Once
	edges [][]h2Edge
	err   error
}

// An h2Edge is what Apply reads and writes for process a and its
// neighbor v: the IDs of the 𝒢 edges (other, a) and (a, other), where
// other is the node on a's side of the edge in 𝒢 (the user v itself,
// or the buffer b(a,v)), and the names the channel (a,v) goes by.
type h2Edge struct {
	in, out      int
	user         bool
	aName, vName string
}

// resolve fills h.edges, or h.err.
func (h *H2Map) resolve() {
	asm, aug := h.Sys.Base(), h.Aug
	g := asm.Tree
	id := func(v, w int) int {
		id, ok := aug.EdgeID(v, w)
		if !ok && h.err == nil {
			h.err = fmt.Errorf("mapping: no edge (%s,%s) in 𝒢", aug.Node(v).Name, aug.Node(w).Name)
		}
		return id
	}
	h.edges = make([][]h2Edge, len(asm.Order))
	for p, a := range asm.Order {
		for _, v := range g.Neighbors(a) {
			e := h2Edge{user: g.Node(v).Kind == graph.User, aName: g.Node(a).Name, vName: g.Node(v).Name}
			other := v
			if !e.user {
				var err error
				if other, err = aug.BufferBetween(a, v); err != nil {
					h.err = err
					return
				}
			}
			e.in, e.out = id(other, a), id(a, other)
			h.edges[p] = append(h.edges[p], e)
		}
	}
}

// Level3 is a level-3 arbiter, A₃ (*dist.System) or A₃ʳ
// (*dist.Hardened), as h₂ reads it: the shared assembly, and the
// messages in transit on its channels.
type Level3 interface {
	Base() *dist.Assembly
	InTransit(st ioa.State) (dist.Transit, error)
}

// NewH2Map prepares the h₂ state function over the reliable A₃;
// NewChain prepares it over either level-3 arbiter.
func NewH2Map(sys *dist.System, aug *graph.Tree) *H2Map {
	return &H2Map{Sys: sys, Aug: aug}
}

// Apply maps a composite state of the level-3 arbiter to the
// corresponding state of A₂ over 𝒢. It returns an error if the
// composite state is malformed.
func (h *H2Map) Apply(st ioa.State) (*graphlevel.State, error) {
	h.once.Do(h.resolve)
	if h.err != nil {
		return nil, h.err
	}
	in, err := h.Sys.InTransit(st)
	if err != nil {
		return nil, err
	}
	asm := h.Sys.Base()
	arrows := make([]uint8, h.Aug.DirectedEdges())
	const (
		bitRequest uint8 = 1
		bitGrant   uint8 = 2
	)
	for p, a := range asm.Order {
		ps, err := asm.ProcStateOf(st, a)
		if err != nil {
			return nil, err
		}
		for i, e := range h.edges[p] {
			// U1/A1: request into a iff v ∈ requesting_a.
			if ps.Requesting(i) {
				arrows[e.in] |= bitRequest
			}
			// U2/A2: grant into a iff holding_a ∧ lastforward_a = v.
			if ps.Holding() && ps.LastForward() == i {
				arrows[e.in] |= bitGrant
			}
			// U3/A3: request out of a iff requested_a ∧ lastforward_a = v.
			if ps.Requested() && ps.LastForward() == i {
				arrows[e.out] |= bitRequest
			}
			// U4: grant ∈ arrows(a,u) iff ¬holding_a ∧ lastforward_a = u.
			// A4: grant ∈ arrows(a, b(a,a')) iff a grant is in transit
			// on the channel (a,a').
			var grantOut bool
			if e.user {
				grantOut = !ps.Holding() && ps.LastForward() == i
			} else {
				grantOut = in.Has(e.aName, e.vName, dist.KindGrant)
			}
			if grantOut {
				arrows[e.out] |= bitGrant
			}
		}
	}
	return graphlevel.AdoptState(h.Aug, arrows), nil
}

// H2 builds the possibilities mapping h₂ from a3r = f₂(A₃) (or
// f₂(A₃ʳ)) to a2 = A₂ over 𝒢. The mapping is functional (conditions
// U1–U4 and A1–A4 determine every arrow set); I1 and I2 are invariants
// validated separately by CheckI1 and CheckI2.
func (h *H2Map) H2(a3r, a2 ioa.Automaton) *proof.PossMapping {
	return &proof.PossMapping{
		A: a3r,
		B: a2,
		Map: func(st ioa.State) []ioa.State {
			mapped, err := h.Apply(st)
			if err != nil {
				return nil
			}
			return []ioa.State{mapped}
		},
	}
}

// CheckI1 verifies invariant I1 of §3.3.6 on a composite state of the
// level-3 arbiter: a request message (a,a′,request) is in transit iff,
// in the mapped state, request ∈ arrows(a,b), request ∉ arrows(b,a′),
// and grant ∉ arrows(a′,b).
func (h *H2Map) CheckI1(st ioa.State) error {
	asm := h.Sys.Base()
	g := asm.Tree
	mapped, err := h.Apply(st)
	if err != nil {
		return err
	}
	in, err := h.Sys.InTransit(st)
	if err != nil {
		return err
	}
	for _, a := range asm.Order {
		for _, v := range g.Neighbors(a) {
			if g.Node(v).Kind != graph.Arbiter {
				continue
			}
			b, err := h.Aug.BufferBetween(a, v)
			if err != nil {
				return err
			}
			inTransit := in.Has(g.Node(a).Name, g.Node(v).Name, dist.KindRequest)
			derived := mapped.HasRequest(a, b) && !mapped.HasRequest(b, v) && !mapped.HasGrant(v, b)
			if inTransit != derived {
				return fmt.Errorf("mapping: I1 violated for (%s,%s): inTransit=%t derived=%t",
					g.Node(a).Name, g.Node(v).Name, inTransit, derived)
			}
		}
	}
	return nil
}

// CheckI2 verifies invariant I2 of §3.3.6: (a, b(a,a′)) points toward
// the root iff holding_a = false and lastforward_a = a′.
func (h *H2Map) CheckI2(st ioa.State) error {
	asm := h.Sys.Base()
	g := asm.Tree
	mapped, err := h.Apply(st)
	if err != nil {
		return err
	}
	root := mapped.Root()
	if root < 0 {
		return fmt.Errorf("mapping: mapped state has no root")
	}
	for _, a := range asm.Order {
		ps, err := asm.ProcStateOf(st, a)
		if err != nil {
			return err
		}
		nb := g.Neighbors(a)
		for i, v := range nb {
			if g.Node(v).Kind != graph.Arbiter {
				continue
			}
			b, err := h.Aug.BufferBetween(a, v)
			if err != nil {
				return err
			}
			toward := root != a && h.Aug.PointsToward(a, b, root)
			want := !ps.Holding() && ps.LastForward() == i
			if toward != want {
				return fmt.Errorf("mapping: I2 violated at %s toward %s: pointsToward=%t holding=%t lf=%d",
					g.Node(a).Name, g.Node(v).Name, toward, ps.Holding(), ps.LastForward())
			}
		}
	}
	return nil
}

// StartEdge computes the initial grant-arrow edge of A₂ over 𝒢 that
// matches h₂ of the system's start state: the edge into the initial
// holder from the direction of its lastForward neighbor.
func (h *H2Map) StartEdge() (from, at int, err error) {
	asm := h.Sys.Base()
	start := asm.Composite.Start()[0]
	for _, a := range asm.Order {
		ps, perr := asm.ProcStateOf(start, a)
		if perr != nil {
			return 0, 0, perr
		}
		if !ps.Holding() {
			continue
		}
		v := asm.Tree.Neighbors(a)[ps.LastForward()]
		if asm.Tree.Node(v).Kind == graph.User {
			return v, a, nil
		}
		b, berr := h.Aug.BufferBetween(a, v)
		if berr != nil {
			return 0, 0, berr
		}
		return b, a, nil
	}
	return 0, 0, fmt.Errorf("mapping: no process holds the resource in the start state")
}
