package graphlevel

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/ioa"
)

// figure33 is a reference interpreter of Figure 3.3 written with
// HasRequest, HasGrant and Tree.Between, as the figure reads: it finds
// every edge it touches by its end nodes on each step. between is the
// window (w, v) of the grant precondition: Tree.Between, or a mutant.
type figure33 struct {
	t       *graph.Tree
	combine bool
	between func(a, w, v int) []int
}

func newFigure33(t *graph.Tree, combine bool) figure33 {
	return figure33{t: t, combine: combine, between: t.Between}
}

// refState is an arrow vector the reference steps, indexed by directed
// edge ID.
type refState struct {
	t      *graph.Tree
	arrows []uint8
}

func refOf(s *State) refState {
	r := refState{t: s.Tree(), arrows: make([]uint8, len(s.Key()))}
	for id := range r.arrows {
		r.arrows[id] = s.Key()[id] - '0'
	}
	return r
}

func (r refState) has(v, w int, bit uint8) bool {
	id, ok := r.t.EdgeID(v, w)
	return ok && r.arrows[id]&bit != 0
}

func (r refState) change(v, w int, set, clear uint8) refState {
	id, _ := r.t.EdgeID(v, w)
	out := refState{t: r.t, arrows: append([]uint8(nil), r.arrows...)}
	out.arrows[id] = out.arrows[id]&^clear | set
	return out
}

func (r refState) key() string {
	b := make([]byte, len(r.arrows))
	for id, a := range r.arrows {
		b[id] = '0' + a
	}
	return string(b)
}

// root is the head of the grant arrow of highest edge ID, or -1.
func (r refState) root() int {
	root := -1
	for id, a := range r.arrows {
		if a&bitGrant != 0 {
			_, root = r.t.Edge(id)
		}
	}
	return root
}

func (r refState) requestingInto(a int) bool {
	for _, w := range r.t.Neighbors(a) {
		if r.has(w, a, bitRequest) {
			return true
		}
	}
	return false
}

// step returns whether the action named (kind, v, w) is enabled at s
// (inputs always are) and the key of its successor.
func (f figure33) step(s refState, kind string, v, w int) (bool, string) {
	t := f.t
	if t.Node(v).Kind == graph.User {
		u, a := v, w
		if kind == "request" {
			return true, s.change(u, a, bitRequest, 0).key()
		}
		if !s.has(a, u, bitGrant) {
			return true, s.key()
		}
		return true, s.change(a, u, 0, bitRequest|bitGrant).change(u, a, bitGrant, 0).key()
	}
	a := v
	v = w
	if kind == "request" {
		root := s.root()
		if !s.requestingInto(a) || s.has(a, v, bitRequest) ||
			root < 0 || root == a || !t.PointsToward(a, v, root) {
			return false, ""
		}
		return true, s.change(a, v, bitRequest, 0).key()
	}
	if !s.has(v, a, bitRequest) {
		return false, ""
	}
	from := -1
	for _, x := range t.Neighbors(a) {
		if s.has(x, a, bitGrant) {
			from = x
			break
		}
	}
	if from < 0 {
		return false, ""
	}
	for _, y := range f.between(a, from, v) {
		if s.has(y, a, bitRequest) {
			return false, ""
		}
	}
	next := s.change(v, a, 0, bitRequest).change(from, a, 0, bitGrant).change(a, v, bitGrant, 0)
	if f.combine && t.Node(v).Kind != graph.User && next.requestingInto(a) && !next.has(a, v, bitRequest) {
		next = next.change(a, v, bitRequest, 0)
	}
	return true, next.key()
}

// compare checks a2 against the reference at s: Root and RootCount,
// and for every action of the signature whether it is enabled and the
// key of its successor. It returns the first disagreement.
func (f figure33) compare(a2 *ioa.Prog, s *State) error {
	ref := refOf(s)
	grants := 0
	for _, a := range ref.arrows {
		if a&bitGrant != 0 {
			grants++
		}
	}
	if s.Root() != ref.root() || s.RootCount() != grants {
		return fmt.Errorf("%s: root %d of %d, reference %d of %d", s.Key(), s.Root(), s.RootCount(), ref.root(), grants)
	}
	enabled := ioa.NewSet(a2.Enabled(s)...)
	sig := a2.Sig()
	checked := 0
	for id := 0; id < f.t.DirectedEdges(); id++ {
		v, w := f.t.Edge(id)
		for _, kind := range []string{"request", "grant"} {
			act := RequestAct(f.t, v, w)
			if kind == "grant" {
				act = GrantAct(f.t, v, w)
			}
			checked++
			wantOn, wantKey := f.step(ref, kind, v, w)
			on := sig.IsInput(act) || enabled.Has(act)
			if on != wantOn {
				return fmt.Errorf("%s: %s enabled=%t, reference %t", s.Key(), act, on, wantOn)
			}
			if !on {
				continue
			}
			next := ioa.Successors(a2, s, act)
			if len(next) != 1 || next[0].Key() != wantKey {
				return fmt.Errorf("%s: %s yields %v, reference %q", s.Key(), act, next, wantKey)
			}
		}
	}
	if checked != len(sig.Acts()) {
		return fmt.Errorf("checked %d actions of a %d-action signature", checked, len(sig.Acts()))
	}
	return nil
}

// stepShape is one graph the step tests run on.
type stepShape struct {
	name string
	tree func() (*graph.Tree, error)
}

func augmented(n int) func() (*graph.Tree, error) {
	return func() (*graph.Tree, error) {
		t, err := graph.BinaryTree(n)
		if err != nil {
			return nil, err
		}
		return graph.Augment(t)
	}
}

var stepShapes = []stepShape{
	{"binary2", func() (*graph.Tree, error) { return graph.BinaryTree(2) }},
	{"binary3", func() (*graph.Tree, error) { return graph.BinaryTree(3) }},
	{"binary4", func() (*graph.Tree, error) { return graph.BinaryTree(4) }},
	{"binary5", func() (*graph.Tree, error) { return graph.BinaryTree(5) }},
	{"path3", func() (*graph.Tree, error) { return graph.Line(3) }},
	{"star4", func() (*graph.Tree, error) { return graph.Star(4) }},
	{"augmented3", augmented(3)},
	{"augmented4", augmented(4)},
}

// buildA2 builds A₂ over the shape with the grant arrow into its first
// arbiter node.
func buildA2(t testing.TB, sh stepShape, combine bool) (*graph.Tree, *ioa.Prog) {
	t.Helper()
	tr, err := sh.tree()
	if err != nil {
		t.Fatal(err)
	}
	holder := tr.NodesOf(graph.Arbiter)[0]
	a2, err := NewWithOptions(tr, tr.Neighbors(holder)[0], holder, Options{CombineGrantRequest: combine})
	if err != nil {
		t.Fatal(err)
	}
	return tr, a2
}

// againstReference compares a2 with the reference on every reachable
// state and returns the first disagreement.
func againstReference(t *testing.T, a2 *ioa.Prog, f figure33) (int, error) {
	t.Helper()
	reach, err := explore.New(explore.Options{}).Reach(context.Background(), a2)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range reach {
		if err := f.compare(a2, st.(*State)); err != nil {
			return len(reach), err
		}
	}
	return len(reach), nil
}

// TestA2StepMatchesFigure33: on every reachable state of A₂ over
// binary trees of two to five users, a path, a star and 𝒢 with
// buffers, plain and with CombineGrantRequest, the steps over edge IDs
// resolved at construction enable the actions Figure 3.3 enables and
// yield the keys it yields.
func TestA2StepMatchesFigure33(t *testing.T) {
	for _, sh := range stepShapes {
		for _, combine := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/combine=%t", sh.name, combine), func(t *testing.T) {
				tr, a2 := buildA2(t, sh, combine)
				n, err := againstReference(t, a2, newFigure33(tr, combine))
				if err != nil {
					t.Fatal(err)
				}
				if n < 2 {
					t.Fatalf("%d reachable states", n)
				}
			})
		}
	}
}

// TestA2StepReferenceCatchesWindowOffByOne: the reference comparison
// fails when the grant window is off by one at either end — one node
// short of (w, v), or starting at w itself — so a step whose window
// were off by one would fail TestA2StepMatchesFigure33.
func TestA2StepReferenceCatchesWindowOffByOne(t *testing.T) {
	mutants := map[string]func(tr *graph.Tree) func(a, w, v int) []int{
		"short": func(tr *graph.Tree) func(a, w, v int) []int {
			return func(a, w, v int) []int {
				if b := tr.Between(a, w, v); len(b) > 0 {
					return b[1:]
				}
				return nil
			}
		},
		"from w": func(tr *graph.Tree) func(a, w, v int) []int {
			return func(a, w, v int) []int {
				if w == v {
					return tr.Between(a, w, v)
				}
				return append([]int{w}, tr.Between(a, w, v)...)
			}
		},
	}
	for name, mutant := range mutants {
		t.Run(name, func(t *testing.T) {
			tr, a2 := buildA2(t, stepShapes[2], false) // binary4: degree-3 nodes
			f := newFigure33(tr, false)
			f.between = mutant(tr)
			if _, err := againstReference(t, a2, f); err == nil {
				t.Fatal("a window off by one agrees with A₂ on every reachable state")
			}
		})
	}
}

// FuzzA2Step: on arbitrary arrow vectors over the step shapes —
// unreachable ones included, with no grant arrow or several — A₂'s
// steps agree with the Figure 3.3 reference.
func FuzzA2Step(f *testing.F) {
	f.Add(uint8(0), false, []byte{})
	f.Add(uint8(2), true, []byte{2, 1, 0, 3, 1})
	f.Add(uint8(6), false, []byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	f.Add(uint8(5), true, []byte{1, 0, 2, 1, 1, 0, 1, 2})
	type built struct {
		tr *graph.Tree
		a2 *ioa.Prog
	}
	var shapes [2][]built
	for c, combine := range []bool{false, true} {
		for _, sh := range stepShapes {
			tr, a2 := buildA2(f, sh, combine)
			shapes[c] = append(shapes[c], built{tr, a2})
		}
	}
	f.Fuzz(func(t *testing.T, shape uint8, combine bool, data []byte) {
		c := 0
		if combine {
			c = 1
		}
		b := shapes[c][int(shape)%len(shapes[c])]
		arrows := make([]uint8, b.tr.DirectedEdges())
		for id := range arrows {
			if len(data) > 0 {
				arrows[id] = data[id%len(data)] & (bitRequest | bitGrant)
			}
		}
		if err := newFigure33(b.tr, combine).compare(b.a2, NewState(b.tr, arrows)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestA2StepAllocs: an input that moves no arrow allocates nothing,
// and a step that moves arrows allocates at most the new state and its
// key.
func TestA2StepAllocs(t *testing.T) {
	tr, err := graph.Star(3)
	if err != nil {
		t.Fatal(err)
	}
	u := tr.NodesOf(graph.User)
	a2, err := NewWithOptions(tr, u[0], 0, Options{CombineGrantRequest: true})
	if err != nil {
		t.Fatal(err)
	}
	start := a2.Start()[0]
	requested, _ := ioa.StepTo(a2, start, RequestAct(tr, u[1], 0), 0)
	var got ioa.State
	yield := func(s ioa.State) bool { got = s; return true }
	for _, c := range []struct {
		name string
		s    ioa.State
		act  ioa.Action
		max  float64
	}{
		{"idle request", requested, RequestAct(tr, u[1], 0), 0},
		{"idle return", start, GrantAct(tr, u[2], 0), 0},
		{"request", start, RequestAct(tr, u[1], 0), 2},
		{"grant", requested, GrantAct(tr, 0, u[1]), 2},
	} {
		got = nil
		allocs := testing.AllocsPerRun(100, func() { a2.Next(nil, c.s, c.act, yield) })
		if got == nil || (c.max == 0) != (got == c.s) {
			t.Fatalf("%s: stepped to %v from %q", c.name, got, c.s.Key())
		}
		if allocs > c.max {
			t.Errorf("%s: %.1f allocations a step, want ≤ %.0f", c.name, allocs, c.max)
		}
	}
}
