// Package graphlevel implements A₂ and E₂ of §3.2: the graph-theoretic
// description of Schönhage's arbiter. The arbiter and its environment
// are a connected acyclic graph; request and grant arrows move along
// edges, the unique node at the head of the grant arrow (the root)
// holds the resource, and arbiter nodes forward requests toward the
// root and forward the resource to requesting neighbors in round-robin
// order.
package graphlevel

import (
	"fmt"
	"strings"

	"repro/internal/graph"
	"repro/internal/ioa"
	"repro/internal/proof"
)

// Arrow-set bits.
const (
	bitRequest uint8 = 1 << iota
	bitGrant
)

// State is a state of A₂: one arrow set per directed edge of the
// graph (§3.2.1). Immutable; mutators return copies.
type State struct {
	tree   *graph.Tree
	arrows []uint8 // indexed by directed edge ID
	key    string
	// root caches the head of the grant arrow (-1 if none); computed
	// once at construction since states are immutable.
	root      int
	rootCount int
}

var _ ioa.State = (*State)(nil)

// NewState builds a state from explicit arrow sets (indexed by the
// tree's directed-edge IDs).
func NewState(t *graph.Tree, arrows []uint8) *State {
	s := &State{tree: t, arrows: append([]uint8(nil), arrows...), root: -1}
	var b strings.Builder
	b.Grow(len(arrows))
	for id, a := range s.arrows {
		b.WriteByte('0' + a)
		if a&bitGrant != 0 {
			_, w := t.Edge(id)
			s.root = w
			s.rootCount++
		}
	}
	s.key = b.String()
	return s
}

// Key implements ioa.State.
func (s *State) Key() string { return s.key }

// Tree returns the underlying graph.
func (s *State) Tree() *graph.Tree { return s.tree }

// HasRequest reports whether a request arrow is on edge (v,w).
func (s *State) HasRequest(v, w int) bool {
	id, ok := s.tree.EdgeID(v, w)
	return ok && s.arrows[id]&bitRequest != 0
}

// HasGrant reports whether a grant arrow is on edge (v,w).
func (s *State) HasGrant(v, w int) bool {
	id, ok := s.tree.EdgeID(v, w)
	return ok && s.arrows[id]&bitGrant != 0
}

// Root returns the unique root — the node at the head of the grant
// arrow — or -1 if no grant arrow is on any edge (which never happens
// in reachable states, Lemma 35).
func (s *State) Root() int { return s.root }

// RootCount returns the number of grant arrows in the state (Lemma 35
// asserts this is always exactly 1).
func (s *State) RootCount() int { return s.rootCount }

// mutate returns a copy of s with the given bit changes applied.
// Each change is (v, w, set, clear).
type arrowChange struct {
	v, w       int
	set, clear uint8
}

func (s *State) mutate(changes ...arrowChange) *State {
	arrows := append([]uint8(nil), s.arrows...)
	for _, c := range changes {
		id, ok := s.tree.EdgeID(c.v, c.w)
		if !ok {
			panic(fmt.Sprintf("graphlevel: no edge (%d,%d)", c.v, c.w))
		}
		arrows[id] &^= c.clear
		arrows[id] |= c.set
	}
	return NewState(s.tree, arrows)
}

// RequestAct names the action request(v,w) for nodes of the tree.
func RequestAct(t *graph.Tree, v, w int) ioa.Action {
	return ioa.Act("request", t.Node(v).Name, t.Node(w).Name)
}

// GrantAct names the action grant(v,w).
func GrantAct(t *graph.Tree, v, w int) ioa.Action {
	return ioa.Act("grant", t.Node(v).Name, t.Node(w).Name)
}

// requestingInto reports whether some arrow set arrows(w,a) carries a
// request arrow.
func requestingInto(s *State, a int) bool {
	for _, w := range s.tree.Neighbors(a) {
		if s.HasRequest(w, a) {
			return true
		}
	}
	return false
}

// grantSource returns the neighbor w with grant ∈ arrows(w,a), or -1.
func grantSource(s *State, a int) int {
	for _, w := range s.tree.Neighbors(a) {
		if s.HasGrant(w, a) {
			return w
		}
	}
	return -1
}

// New builds the automaton A₂ over the given tree (Figure 3.3), with
// the grant arrow initially on edge (rootFrom, rootAt); rootAt must be
// an arbiter or buffer node (§3.2.1, §3.3: no buffer node is a root is
// required only of 𝒢 start states — pass an arbiter node there).
//
// Signature (with u a user node, a,v arbiter/buffer nodes):
//
//	inputs:    request(u,a), grant(u,a)
//	outputs:   grant(a,u)
//	internal:  request(a,v), request(a,u), grant(a,v)
//
// The partition has one class per arbiter/buffer node, holding that
// node's request/grant actions.
func New(t *graph.Tree, rootFrom, rootAt int) (*ioa.Prog, error) {
	return NewWithOptions(t, rootFrom, rootAt, Options{})
}

// Options configure protocol variants of A₂.
type Options struct {
	// CombineGrantRequest implements the optimization of the closing
	// remark of §3.4: when a node grants the resource onward while
	// still at the head of another request arrow, the follow-up
	// request is combined with the grant (one message instead of two),
	// improving the worst-case response bound from 3be−b to about 2be.
	CombineGrantRequest bool
}

// NewWithOptions is New with protocol variants enabled.
func NewWithOptions(t *graph.Tree, rootFrom, rootAt int, opts Options) (*ioa.Prog, error) {
	if t.Node(rootAt).Kind == graph.User {
		return nil, fmt.Errorf("graphlevel: initial root %s must not be a user", t.Node(rootAt).Name)
	}
	if _, ok := t.EdgeID(rootFrom, rootAt); !ok {
		return nil, fmt.Errorf("graphlevel: no edge (%s,%s) for initial grant arrow",
			t.Node(rootFrom).Name, t.Node(rootAt).Name)
	}
	d := ioa.NewDef("A2")
	start := make([]uint8, t.DirectedEdges())
	id, _ := t.EdgeID(rootFrom, rootAt)
	start[id] = bitGrant
	d.Start(NewState(t, start))

	for _, n := range t.Nodes() {
		switch n.Kind {
		case graph.User:
			defineUserInputs(d, t, n.ID)
		case graph.Arbiter, graph.Buffer:
			defineArbiterActions(d, t, n.ID, opts)
		}
	}
	return d.Build()
}

// defineUserInputs adds the input actions of user u (§3.2.2):
// request(u,a) places a request arrow; grant(u,a) returns the resource
// (ignored unless the user actually holds it).
func defineUserInputs(d *ioa.Def, t *graph.Tree, u int) {
	a := t.UserAttachment(u)
	d.Input(RequestAct(t, u, a), func(st ioa.State) ioa.State {
		return st.(*State).mutate(arrowChange{v: u, w: a, set: bitRequest})
	})
	d.Input(GrantAct(t, u, a), func(st ioa.State) ioa.State {
		s := st.(*State)
		if !s.HasGrant(a, u) {
			return s // faulty return of a resource not held: ignored
		}
		return s.mutate(
			arrowChange{v: a, w: u, clear: bitRequest | bitGrant},
			arrowChange{v: u, w: a, set: bitGrant},
		)
	})
}

// defineArbiterActions adds the locally-controlled actions of arbiter
// (or buffer) node a: request(a,v) forwarding a request toward the
// root, and grant(a,v) forwarding the resource to the next requesting
// neighbor after the one it arrived from (Figure 3.3).
func defineArbiterActions(d *ioa.Def, t *graph.Tree, a int, opts Options) {
	for _, v := range t.Neighbors(a) {
		v := v
		// Arbiter nodes model one process each: one class per node.
		// Buffer nodes model one message channel per direction: one
		// class per (buffer, target) pair, mirroring the partition of
		// the message automaton M at level 3 (§3.3).
		class := t.Node(a).Name
		if t.Node(a).Kind == graph.Buffer {
			class = t.Node(a).Name + "->" + t.Node(v).Name
		}
		// request(a,v): pre — some request has arrived at a, (a,v)
		// points toward the root, and the request was not already
		// forwarded on (a,v).
		reqPre := func(st ioa.State) bool {
			s := st.(*State)
			if !requestingInto(s, a) || s.HasRequest(a, v) {
				return false
			}
			root := s.Root()
			return root >= 0 && root != a && s.tree.PointsToward(a, v, root)
		}
		reqEff := func(st ioa.State) ioa.State {
			return st.(*State).mutate(arrowChange{v: a, w: v, set: bitRequest})
		}
		d.Internal(RequestAct(t, a, v), class, reqPre, reqEff)

		// grant(a,v): pre — v has requested, a is the root (grant on
		// some (w,a)), and no requester lies properly between w and v
		// in a's neighbor ordering.
		grPre := func(st ioa.State) bool {
			s := st.(*State)
			if !s.HasRequest(v, a) {
				return false
			}
			w := grantSource(s, a)
			if w < 0 {
				return false
			}
			for _, y := range s.tree.Between(a, w, v) {
				if s.HasRequest(y, a) {
					return false
				}
			}
			return true
		}
		grEff := func(st ioa.State) ioa.State {
			s := st.(*State)
			w := grantSource(s, a)
			next := s.mutate(
				arrowChange{v: v, w: a, clear: bitRequest},
				arrowChange{v: w, w: a, clear: bitGrant},
				arrowChange{v: a, w: v, set: bitGrant},
			)
			if opts.CombineGrantRequest && t.Node(v).Kind != graph.User &&
				requestingInto(next, a) && !next.HasRequest(a, v) {
				next = next.mutate(arrowChange{v: a, w: v, set: bitRequest})
			}
			return next
		}
		if t.Node(v).Kind == graph.User {
			d.Output(GrantAct(t, a, v), class, grPre, grEff)
		} else {
			d.Internal(GrantAct(t, a, v), class, grPre, grEff)
		}
	}
}

// SingleRoot is the Lemma 35 invariant: every state has exactly one
// grant arrow.
func SingleRoot(st ioa.State) bool {
	s, ok := st.(*State)
	return ok && s.RootCount() == 1
}

// RequestsPointToRoot is the Lemma 36 invariant: every request arrow
// placed by an arbiter node points toward the root.
func RequestsPointToRoot(st ioa.State) bool {
	s, ok := st.(*State)
	if !ok {
		return false
	}
	root := s.Root()
	if root < 0 {
		return false
	}
	for _, n := range s.tree.Nodes() {
		if n.Kind == graph.User {
			continue
		}
		for _, v := range s.tree.Neighbors(n.ID) {
			if s.HasRequest(n.ID, v) && !(n.ID != root && s.tree.PointsToward(n.ID, v, root)) {
				return false
			}
		}
	}
	return true
}

// BufferInvariant is the Lemma 41 invariant on 𝒢: if a request sits on
// (b(a,a'), a') or a grant sits on (a', b(a,a')), then a request sits
// on (a, b(a,a')). Holds vacuously on graphs without buffer nodes.
func BufferInvariant(st ioa.State) bool {
	s, ok := st.(*State)
	if !ok {
		return false
	}
	for _, n := range s.tree.Nodes() {
		if n.Kind != graph.Buffer {
			continue
		}
		nb := s.tree.Neighbors(n.ID)
		for _, aPrime := range nb {
			if !s.HasRequest(n.ID, aPrime) && !s.HasGrant(aPrime, n.ID) {
				continue
			}
			// The other neighbor of the buffer is "a".
			a := nb[0]
			if a == aPrime {
				a = nb[1]
			}
			if !s.HasRequest(a, n.ID) {
				return false
			}
		}
	}
	return true
}

// MutualExclusion reports that at most one user holds the resource: at
// most one edge (a,u) into a user carries a grant arrow.
func MutualExclusion(st ioa.State) bool {
	s, ok := st.(*State)
	if !ok {
		return false
	}
	holders := 0
	for _, u := range s.tree.NodesOf(graph.User) {
		if s.HasGrant(s.tree.UserAttachment(u), u) {
			holders++
		}
	}
	return holders <= 1
}

// FwdReq2 builds the condition FwdReq₂(a,v) of §3.2.3: an arbiter node
// at the head of a request arrow that has not forwarded it toward the
// root either becomes the root or forwards the request.
func FwdReq2(t *graph.Tree, a, v int) *proof.LeadsTo {
	return &proof.LeadsTo{
		Name: fmt.Sprintf("FwdReq2(%s,%s)", t.Node(a).Name, t.Node(v).Name),
		S: func(st ioa.State) bool {
			s := st.(*State)
			if !requestingInto(s, a) || s.HasRequest(a, v) {
				return false
			}
			root := s.Root()
			return root >= 0 && root != a && s.tree.PointsToward(a, v, root)
		},
		T: func(act ioa.Action) bool {
			return act == GrantAct(t, v, a) || act == RequestAct(t, a, v)
		},
	}
}

// FwdGr2 builds the condition FwdGr₂(a,v,w) of §3.2.3: a root arbiter
// node at the head of a request arrow eventually forwards the resource
// to a requesting neighbor in the (w,v] window.
func FwdGr2(t *graph.Tree, a, v, w int) *proof.LeadsTo {
	window := append(t.Between(a, w, v), v)
	return &proof.LeadsTo{
		Name: fmt.Sprintf("FwdGr2(%s,%s,%s)", t.Node(a).Name, t.Node(v).Name, t.Node(w).Name),
		S: func(st ioa.State) bool {
			s := st.(*State)
			return s.HasRequest(v, a) && s.HasGrant(w, a)
		},
		T: func(act ioa.Action) bool {
			for _, y := range window {
				if act == GrantAct(t, a, y) {
					return true
				}
			}
			return false
		},
	}
}

// RtnRes2 builds RtnRes₂(u) of §3.2.3: a user holding the resource
// eventually returns it (environment hypothesis).
func RtnRes2(t *graph.Tree, u int) *proof.LeadsTo {
	a := t.UserAttachment(u)
	return &proof.LeadsTo{
		Name: fmt.Sprintf("RtnRes2(%s)", t.Node(u).Name),
		S: func(st ioa.State) bool {
			return st.(*State).HasGrant(a, u)
		},
		T: func(act ioa.Action) bool { return act == GrantAct(t, u, a) },
	}
}

// GrRes2 builds GrRes₂(u) of §3.2.3: a requesting user is eventually
// granted the resource.
func GrRes2(t *graph.Tree, u int) *proof.LeadsTo {
	a := t.UserAttachment(u)
	return &proof.LeadsTo{
		Name: fmt.Sprintf("GrRes2(%s)", t.Node(u).Name),
		S: func(st ioa.State) bool {
			return st.(*State).HasRequest(u, a)
		},
		T: func(act ioa.Action) bool { return act == GrantAct(t, a, u) },
	}
}

// C2 returns the conjunction C₂ = FwdReq₂ ∧ FwdGr₂ over all applicable
// node triples: the arbiter's progress obligations.
func C2(t *graph.Tree) []*proof.LeadsTo {
	var out []*proof.LeadsTo
	for _, n := range t.Nodes() {
		if n.Kind == graph.User {
			continue
		}
		for _, v := range t.Neighbors(n.ID) {
			out = append(out, FwdReq2(t, n.ID, v))
			for _, w := range t.Neighbors(n.ID) {
				out = append(out, FwdGr2(t, n.ID, v, w))
			}
		}
	}
	return out
}

// E2 builds the execution module E₂: executions of A₂ satisfying C₂
// (§3.2.3). Corollary 38 — every execution of E₂ satisfies
// RtnRes₂ ⊃ GrRes₂ — is validated in tests by combining this module's
// goals with the RtnRes₂ hypotheses.
func E2(a ioa.Automaton, t *graph.Tree) *proof.CondModule {
	return &proof.CondModule{Name: "E2", Auto: a, Goals: C2(t)}
}

// F1 builds the action mapping f₁ of §3.2.4, renaming A₂'s external
// actions to those of A₁:
//
//	request(u,a) ↦ request(u)
//	grant(u,a)   ↦ return(u)
//	grant(a,u)   ↦ grant(u)
func F1(t *graph.Tree) *ioa.Mapping {
	pairs := make(map[ioa.Action]ioa.Action)
	for _, u := range t.NodesOf(graph.User) {
		a := t.UserAttachment(u)
		uName := t.Node(u).Name
		pairs[RequestAct(t, u, a)] = ioa.Act("request", uName)
		pairs[GrantAct(t, u, a)] = ioa.Act("return", uName)
		pairs[GrantAct(t, a, u)] = ioa.Act("grant", uName)
	}
	return ioa.MustMapping(pairs)
}
