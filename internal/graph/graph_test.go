package graph

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/testseed"
)

func figTree(t *testing.T) *Tree {
	t.Helper()
	tr, err := Figure32()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestFigure32Shape(t *testing.T) {
	tr := figTree(t)
	if tr.N() != 6 || tr.EdgeCount() != 5 {
		t.Fatalf("N=%d e=%d", tr.N(), tr.EdgeCount())
	}
	if got := len(tr.NodesOf(User)); got != 3 {
		t.Errorf("users = %d", got)
	}
	if got := len(tr.NodesOf(Arbiter)); got != 3 {
		t.Errorf("arbiters = %d", got)
	}
	if d := tr.Diameter(); d != 4 {
		t.Errorf("diameter = %d, want 4 (u1..a1 a2 a3..u3)", d)
	}
}

func TestBuilderRejectsNonTrees(t *testing.T) {
	b := NewBuilder()
	x := b.AddNode("x", Arbiter)
	y := b.AddNode("y", Arbiter)
	z := b.AddNode("z", Arbiter)
	b.AddEdge(x, y)
	b.AddEdge(y, z)
	b.AddEdge(z, x) // cycle
	if _, err := b.Build(); err == nil {
		t.Error("cycle must be rejected")
	}
	b2 := NewBuilder()
	b2.AddNode("lonely", Arbiter)
	b2.AddNode("island", Arbiter)
	if _, err := b2.Build(); err == nil {
		t.Error("disconnected graph must be rejected")
	}
	b3 := NewBuilder()
	b3.AddNode("dup", Arbiter)
	b3.AddNode("dup", Arbiter)
	if _, err := b3.Build(); err == nil {
		t.Error("duplicate names must be rejected")
	}
}

func TestPointsToward(t *testing.T) {
	tr := figTree(t)
	byName := func(name string) int {
		for _, n := range tr.Nodes() {
			if n.Name == name {
				return n.ID
			}
		}
		t.Fatalf("no node %s", name)
		return -1
	}
	a1, a2, a3 := byName("a1"), byName("a2"), byName("a3")
	u1, u3 := byName("u1"), byName("u3")
	tests := []struct {
		v, w, z int
		want    bool
	}{
		{a1, a2, a3, true},  // a1→a2 heads toward a3
		{a2, a1, a3, false}, // wrong direction
		{a1, a2, u3, true},  // and toward u3 beyond a3
		{a1, u1, a3, false}, // edge into the leaf goes away from a3
		{a3, a2, u1, true},  // a3→a2 heads toward u1
		{a1, a2, a1, false}, // z == v: no edge points toward itself
		{u1, a1, u3, true},  // leaf edge toward the far side
		{a2, a3, u1, false}, // away from u1
	}
	for _, tc := range tests {
		if got := tr.PointsToward(tc.v, tc.w, tc.z); got != tc.want {
			t.Errorf("PointsToward(%s,%s,%s) = %t, want %t",
				tr.Node(tc.v).Name, tr.Node(tc.w).Name, tr.Node(tc.z).Name, got, tc.want)
		}
	}
}

func TestBetweenAndFirstRequester(t *testing.T) {
	tr := figTree(t)
	// a2's neighbor order is (a1, u2, a3).
	a2 := 1
	a1, u2, a3 := 0, 4, 2
	if got := tr.Between(a2, a1, a3); !reflect.DeepEqual(got, []int{u2}) {
		t.Errorf("Between(a2, a1, a3) = %v, want [u2]", got)
	}
	if got := tr.Between(a2, a3, a1); len(got) != 0 {
		t.Errorf("Between(a2, a3, a1) = %v, want empty (cyclic wrap)", got)
	}
	// (w,w) spans all other neighbors.
	if got := tr.Between(a2, a1, a1); len(got) != 2 {
		t.Errorf("Between(a2, a1, a1) = %v, want both others", got)
	}
	// First requester scanning after a1: u2 then a3 then a1.
	req := map[int]bool{a3: true, a1: true}
	if got := tr.FirstRequesterAfter(a2, a1, func(v int) bool { return req[v] }); got != a3 {
		t.Errorf("FirstRequesterAfter = %v, want a3", tr.Node(got).Name)
	}
	if got := tr.FirstRequesterAfter(a2, a1, func(int) bool { return false }); got != -1 {
		t.Errorf("no requester should give -1, got %d", got)
	}
}

func TestPathLen(t *testing.T) {
	tr := figTree(t)
	tests := []struct {
		a, b, want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{3, 5, 4}, // u1 to u3
		{3, 4, 3}, // u1 to u2
	}
	for _, tc := range tests {
		if got := tr.PathLen(tc.a, tc.b); got != tc.want {
			t.Errorf("PathLen(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		if got := tr.PathLen(tc.b, tc.a); got != tc.want {
			t.Errorf("PathLen asymmetric for (%d,%d)", tc.a, tc.b)
		}
	}
}

func TestAugment(t *testing.T) {
	tr := figTree(t)
	aug, err := Augment(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Two arbiter-arbiter edges gain buffers.
	if got := len(aug.NodesOf(Buffer)); got != 2 {
		t.Fatalf("buffers = %d, want 2", got)
	}
	if aug.N() != tr.N()+2 || aug.EdgeCount() != tr.EdgeCount()+2 {
		t.Errorf("augmented sizes wrong: N=%d e=%d", aug.N(), aug.EdgeCount())
	}
	// Original node IDs preserved.
	for _, n := range tr.Nodes() {
		if aug.Node(n.ID).Name != n.Name {
			t.Errorf("node %d renamed: %s vs %s", n.ID, aug.Node(n.ID).Name, n.Name)
		}
	}
	// Buffers have degree 2 and sit between their arbiters.
	for _, b := range aug.NodesOf(Buffer) {
		if aug.Degree(b) != 2 {
			t.Errorf("buffer %s degree %d", aug.Node(b).Name, aug.Degree(b))
		}
		for _, nb := range aug.Neighbors(b) {
			if aug.Node(nb).Kind != Arbiter {
				t.Errorf("buffer %s adjacent to non-arbiter %s", aug.Node(b).Name, aug.Node(nb).Name)
			}
		}
	}
	// Neighbor ORDER of original nodes is preserved (with buffers
	// substituted); this matters for the round-robin grant rule.
	a2 := 1
	origOrder := tr.Neighbors(a2)
	augOrder := aug.Neighbors(a2)
	if len(origOrder) != len(augOrder) {
		t.Fatal("degree changed")
	}
	for i := range origOrder {
		o, g := origOrder[i], augOrder[i]
		if tr.Node(o).Kind == Arbiter {
			if aug.Node(g).Kind != Buffer {
				t.Errorf("slot %d: want buffer, got %s", i, aug.Node(g).Name)
			}
		} else if o != g {
			t.Errorf("slot %d: user moved", i)
		}
	}
	// No user-arbiter edge gained a buffer.
	for _, u := range aug.NodesOf(User) {
		if aug.Node(aug.UserAttachment(u)).Kind != Arbiter {
			t.Errorf("user %s attached to %s", aug.Node(u).Name, aug.Node(aug.UserAttachment(u)).Name)
		}
	}
}

func TestBinaryTreeProperties(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 7, 8, 16, 33}
	for _, n := range sizes {
		tr, err := BinaryTree(n)
		if err != nil {
			t.Fatalf("BinaryTree(%d): %v", n, err)
		}
		if got := len(tr.NodesOf(User)); got != n {
			t.Errorf("BinaryTree(%d) users = %d", n, got)
		}
		// Users are leaves.
		for _, u := range tr.NodesOf(User) {
			if tr.Degree(u) != 1 {
				t.Errorf("user %s degree %d", tr.Node(u).Name, tr.Degree(u))
			}
		}
		// Tree invariant is checked by Build; diameter grows ~2 log n.
		if n >= 4 && tr.Diameter() > 2*(2+log2(n)) {
			t.Errorf("BinaryTree(%d) diameter %d too large", n, tr.Diameter())
		}
	}
	if _, err := BinaryTree(0); err == nil {
		t.Error("BinaryTree(0) must fail")
	}
}

func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

func TestLineAndStar(t *testing.T) {
	l, err := Line(5)
	if err != nil {
		t.Fatal(err)
	}
	if l.Diameter() != 6 {
		t.Errorf("Line(5) diameter = %d, want 6", l.Diameter())
	}
	s, err := Star(4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Diameter() != 2 || len(s.NodesOf(User)) != 4 {
		t.Errorf("Star(4) wrong: d=%d", s.Diameter())
	}
}

// Property: for random trees, PointsToward(v,w,z) holds for exactly
// one directed orientation of each edge on the path to z, and
// PathLen is a metric along edges.
func TestPointsTowardProperty(t *testing.T) {
	f := func(seed uint8) bool {
		n := int(seed%6) + 3
		b := NewBuilder()
		ids := make([]int, n)
		for i := 0; i < n; i++ {
			kind := Arbiter
			if i >= n-2 { // last two nodes are leaves/users
				kind = User
			}
			ids[i] = b.AddNode(nodeName(i), kind)
		}
		for i := 1; i < n; i++ {
			parent := (int(seed) + i*7) % i
			b.AddEdge(ids[parent], ids[i])
		}
		tr, err := b.Build()
		if err != nil {
			// Users may be internal; rebuild with all-arbiter nodes.
			return true
		}
		for v := 0; v < n; v++ {
			for _, w := range tr.Neighbors(v) {
				for z := 0; z < n; z++ {
					if z == v {
						if tr.PointsToward(v, w, z) {
							return false
						}
						continue
					}
					// Exactly one of (v,w),(w,v) on the v—w edge
					// points toward z unless z is... (v,w) toward z
					// iff w is on the path v→z; (w,v) toward z iff v
					// on path w→z. For z≠v,w exactly one holds; for
					// z==w only (v,w).
					vw := tr.PointsToward(v, w, z)
					wv := tr.PointsToward(w, v, z)
					if z == w {
						if !vw || wv {
							return false
						}
					} else if vw == wv {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, testseed.Quick(t, 30)); err != nil {
		t.Error(err)
	}
}

func nodeName(i int) string {
	return string(rune('a'+i%26)) + string(rune('0'+i/26))
}

// TestEdgeIDAgreesWithEdge pins EdgeID as the inverse of Edge on every
// directed edge — also on augmented trees, whose adjacency order is
// rewritten after the edges were numbered — and its refusal of
// non-edges and out-of-range nodes.
func TestEdgeIDAgreesWithEdge(t *testing.T) {
	trees := map[string]*Tree{"figure32": figTree(t)}
	for name, build := range map[string]func() (*Tree, error){
		"binary6": func() (*Tree, error) { return BinaryTree(6) },
		"line4":   func() (*Tree, error) { return Line(4) },
		"star5":   func() (*Tree, error) { return Star(5) },
		"random":  func() (*Tree, error) { return Random(testseed.Base(t), 5, 4) },
	} {
		tr, err := build()
		if err != nil {
			t.Fatal(err)
		}
		trees[name] = tr
	}
	for name, tr := range trees {
		aug, err := Augment(tr)
		if err != nil {
			t.Fatal(err)
		}
		trees[name+"/aug"] = aug
	}
	for name, tr := range trees {
		isEdge := make(map[[2]int]bool)
		for id := 0; id < tr.DirectedEdges(); id++ {
			v, w := tr.Edge(id)
			isEdge[[2]int{v, w}] = true
			if got, ok := tr.EdgeID(v, w); !ok || got != id {
				t.Errorf("%s: EdgeID(%d,%d) = %d,%t, Edge(%d) says %d", name, v, w, got, ok, id, id)
			}
		}
		if len(isEdge) != 2*tr.EdgeCount() {
			t.Errorf("%s: %d distinct directed edges, want %d", name, len(isEdge), 2*tr.EdgeCount())
		}
		for v := -1; v <= tr.N(); v++ {
			for w := -1; w <= tr.N(); w++ {
				if _, ok := tr.EdgeID(v, w); ok != isEdge[[2]int{v, w}] {
					t.Errorf("%s: EdgeID(%d,%d) ok=%t, want %t", name, v, w, ok, !ok)
				}
			}
		}
		// Every neighbor pair is an edge in both directions.
		for v := 0; v < tr.N(); v++ {
			for _, w := range tr.Neighbors(v) {
				if !isEdge[[2]int{v, w}] || !isEdge[[2]int{w, v}] {
					t.Errorf("%s: neighbors %d,%d are not edges both ways", name, v, w)
				}
			}
		}
	}
}

func TestBuildRejectsDuplicateEdge(t *testing.T) {
	b := NewBuilder()
	x, y := b.AddNode("x", Arbiter), b.AddNode("y", User)
	b.AddNode("z", User) // three nodes, so two edges pass the count check
	b.AddEdge(x, y)
	b.AddEdge(x, y)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "duplicate edge") {
		t.Fatalf("want duplicate-edge rejection, got %v", err)
	}
}
