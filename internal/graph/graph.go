// Package graph provides the tree substrate of Chapter 3: connected
// acyclic graphs whose leaves are user nodes and whose internal nodes
// form the arbiter, with fixed cyclic orderings of each node's
// neighbors (used by the round-robin granting rule), buffer-node
// augmentation 𝒢 (§3.3), and the metrics (diameter, edge count) of the
// §3.4 complexity analysis.
package graph

import (
	"fmt"
	"slices"
	"strings"
)

// Kind classifies a node of the graph.
type Kind int

// Node kinds. Users are the leaves of G; arbiter nodes are internal;
// buffer nodes are inserted between adjacent arbiter nodes by Augment.
const (
	User Kind = iota + 1
	Arbiter
	Buffer
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case User:
		return "user"
	case Arbiter:
		return "arbiter"
	case Buffer:
		return "buffer"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// A Node is a vertex of the tree.
type Node struct {
	// ID is the node's index in the tree's node list.
	ID int
	// Name is the node's label (u1..., a1..., b(a1,a2)).
	Name string
	// Kind is the node's role.
	Kind Kind
}

// A Tree is a connected acyclic graph with a fixed ordering of each
// node's neighbors. It is immutable after construction.
type Tree struct {
	nodes []Node
	// adj[v] lists v's neighbors in v's fixed cyclic order.
	adj [][]int
	// edges lists the directed edges by dense index in [0, 2E), grouped
	// by tail: those leaving v are edges[edgeBase[v]:edgeBase[v+1]], in
	// the adjacency order Build saw (Augment reorders adj afterwards, so
	// EdgeID scans edges, not adj).
	edges    [][2]int
	edgeBase []int
	// tin/tout are Euler intervals for orientation queries, rooted at 0.
	tin, tout []int
	parent    []int
}

// A Builder accumulates nodes and edges for a Tree.
type Builder struct {
	nodes  []Node
	byName map[string]int
	adj    [][]int
	err    error
}

// NewBuilder creates an empty tree builder.
func NewBuilder() *Builder {
	return &Builder{byName: make(map[string]int)}
}

// AddNode adds a node and returns its ID.
func (b *Builder) AddNode(name string, kind Kind) int {
	if _, dup := b.byName[name]; dup && b.err == nil {
		b.err = fmt.Errorf("graph: duplicate node name %q", name)
	}
	id := len(b.nodes)
	b.nodes = append(b.nodes, Node{ID: id, Name: name, Kind: kind})
	b.byName[name] = id
	b.adj = append(b.adj, nil)
	return id
}

// AddEdge adds an undirected edge; neighbor order is insertion order.
func (b *Builder) AddEdge(v, w int) {
	if b.err != nil {
		return
	}
	if v < 0 || v >= len(b.nodes) || w < 0 || w >= len(b.nodes) || v == w {
		b.err = fmt.Errorf("graph: bad edge (%d,%d)", v, w)
		return
	}
	b.adj[v] = append(b.adj[v], w)
	b.adj[w] = append(b.adj[w], v)
}

// Build validates connectivity and acyclicity and returns the tree.
func (b *Builder) Build() (*Tree, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := len(b.nodes)
	if n == 0 {
		return nil, fmt.Errorf("graph: empty tree")
	}
	edgeCount := 0
	for _, nb := range b.adj {
		edgeCount += len(nb)
	}
	if edgeCount != 2*(n-1) {
		return nil, fmt.Errorf("graph: %d nodes need %d edges for a tree, have %d", n, n-1, edgeCount/2)
	}
	t := &Tree{
		nodes:    b.nodes,
		adj:      b.adj,
		edges:    make([][2]int, 0, edgeCount),
		edgeBase: make([]int, n+1),
		tin:      make([]int, n),
		tout:     make([]int, n),
		parent:   make([]int, n),
	}
	for v, nb := range b.adj {
		t.edgeBase[v] = len(t.edges)
		for i, w := range nb {
			if slices.Index(nb[:i], w) >= 0 {
				return nil, fmt.Errorf("graph: duplicate edge (%s,%s)", b.nodes[v].Name, b.nodes[w].Name)
			}
			t.edges = append(t.edges, [2]int{v, w})
		}
	}
	t.edgeBase[n] = len(t.edges)
	// Euler tour from node 0; also checks connectivity/acyclicity.
	timer := 0
	visited := make([]bool, n)
	var dfs func(v, p int) error
	dfs = func(v, p int) error {
		if visited[v] {
			return fmt.Errorf("graph: cycle detected at %s", t.nodes[v].Name)
		}
		visited[v] = true
		t.parent[v] = p
		t.tin[v] = timer
		timer++
		for _, w := range t.adj[v] {
			if w == p {
				continue
			}
			if err := dfs(w, v); err != nil {
				return err
			}
		}
		t.tout[v] = timer
		timer++
		return nil
	}
	if err := dfs(0, -1); err != nil {
		return nil, err
	}
	for v, ok := range visited {
		if !ok {
			return nil, fmt.Errorf("graph: node %s unreachable (graph not connected)", t.nodes[v].Name)
		}
	}
	return t, nil
}

// N returns the number of nodes.
func (t *Tree) N() int { return len(t.nodes) }

// Node returns the node with the given ID.
func (t *Tree) Node(id int) Node { return t.nodes[id] }

// Nodes returns all nodes.
func (t *Tree) Nodes() []Node { return append([]Node(nil), t.nodes...) }

// NodesOf returns the IDs of nodes of the given kind, ascending.
func (t *Tree) NodesOf(kind Kind) []int {
	var out []int
	for _, n := range t.nodes {
		if n.Kind == kind {
			out = append(out, n.ID)
		}
	}
	return out
}

// Neighbors returns v's neighbors in the fixed cyclic order. The slice
// is the tree's own adjacency list, shared by every caller: read-only.
func (t *Tree) Neighbors(v int) []int { return t.adj[v] }

// Degree returns the number of neighbors of v.
func (t *Tree) Degree(v int) int { return len(t.adj[v]) }

// EdgeCount returns e, the number of undirected edges.
func (t *Tree) EdgeCount() int { return len(t.edges) / 2 }

// DirectedEdges returns the number of directed edges (2e).
func (t *Tree) DirectedEdges() int { return len(t.edges) }

// EdgeID returns the dense index of directed edge (v,w) and whether it
// exists: a scan of the edges leaving v (degree is small on a tree).
func (t *Tree) EdgeID(v, w int) (int, bool) {
	if v < 0 || v >= len(t.nodes) {
		return 0, false
	}
	for id := t.edgeBase[v]; id < t.edgeBase[v+1]; id++ {
		if t.edges[id][1] == w {
			return id, true
		}
	}
	return 0, false
}

// Edge returns the directed edge with the given dense index.
func (t *Tree) Edge(id int) (v, w int) {
	e := t.edges[id]
	return e[0], e[1]
}

// inSubtree reports whether z is in the subtree rooted at v (with the
// tree rooted at node 0).
func (t *Tree) inSubtree(v, z int) bool {
	return t.tin[v] <= t.tin[z] && t.tout[z] <= t.tout[v]
}

// PointsToward reports whether the directed edge (v,w) points toward
// node z: whether (v,w) lies on the path from v to z (§3.2). Requires
// that v,w be adjacent and z ≠ v.
func (t *Tree) PointsToward(v, w, z int) bool {
	if t.parent[w] == v {
		// Edge descends into w's subtree.
		return t.inSubtree(w, z)
	}
	// w is v's parent: edge points out of v's subtree.
	return !t.inSubtree(v, z)
}

// Between returns the nodes properly between w and v in the cyclic
// ordering of a's neighbors — the paper's (w, v) interval: scanning
// a's neighbor list cyclically starting after w, the nodes encountered
// strictly before v (§3.2.2).
func (t *Tree) Between(a, w, v int) []int {
	nb := t.adj[a]
	start := slices.Index(nb, w)
	if start < 0 || slices.Index(nb, v) < 0 {
		return nil
	}
	var out []int
	for k := 1; k < len(nb); k++ {
		cand := nb[(start+k)%len(nb)]
		if cand == v {
			break
		}
		out = append(out, cand)
	}
	return out
}

// FirstRequesterAfter scans a's neighbors cyclically starting after w
// and returns the first node for which requesting reports true, or -1.
// This is the node selected by the paper's granting rule: "the first
// node w in some fixed ordering of its adjacent nodes having a request
// arrow" after the node the grant arrived from.
func (t *Tree) FirstRequesterAfter(a, w int, requesting func(int) bool) int {
	nb := t.adj[a]
	start := slices.Index(nb, w)
	if start < 0 {
		start = 0
	}
	for k := 1; k <= len(nb); k++ {
		cand := nb[(start+k)%len(nb)]
		if requesting(cand) {
			return cand
		}
	}
	return -1
}

// BufferBetween returns the buffer node adjacent to both a and v in an
// augmented graph (Augment): the node the arbiter edge {a, v} became.
func (t *Tree) BufferBetween(a, v int) (int, error) {
	for _, b := range t.adj[a] {
		if t.nodes[b].Kind == Buffer && slices.Contains(t.adj[b], v) {
			return b, nil
		}
	}
	return -1, fmt.Errorf("graph: no buffer between %s and %s", t.nodes[a].Name, t.nodes[v].Name)
}

// PathLen returns the number of edges on the path from v to w.
func (t *Tree) PathLen(v, w int) int {
	// LCA by walking parents using depth via tin ordering.
	depth := func(x int) int {
		d := 0
		for x != 0 {
			x = t.parent[x]
			d++
		}
		return d
	}
	dv, dw := depth(v), depth(w)
	n := 0
	for dv > dw {
		v = t.parent[v]
		dv--
		n++
	}
	for dw > dv {
		w = t.parent[w]
		dw--
		n++
	}
	for v != w {
		v, w = t.parent[v], t.parent[w]
		n += 2
	}
	return n
}

// Diameter returns the number of edges of the longest path in the tree.
func (t *Tree) Diameter() int {
	far := func(src int) (int, int) {
		dist := make([]int, t.N())
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue := []int{src}
		best, bestD := src, 0
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if dist[v] > bestD {
				best, bestD = v, dist[v]
			}
			for _, w := range t.adj[v] {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
			}
		}
		return best, bestD
	}
	a, _ := far(0)
	_, d := far(a)
	return d
}

// UserAttachment returns the arbiter node adjacent to user u (a user
// is a leaf with exactly one neighbor).
func (t *Tree) UserAttachment(u int) int { return t.adj[u][0] }

// String renders the adjacency structure for diagnostics.
func (t *Tree) String() string {
	var b strings.Builder
	for v, nb := range t.adj {
		names := make([]string, len(nb))
		for i, w := range nb {
			names[i] = t.nodes[w].Name
		}
		fmt.Fprintf(&b, "%s(%s): %s\n", t.nodes[v].Name, t.nodes[v].Kind, strings.Join(names, " "))
	}
	return b.String()
}

// Augment inserts a buffer node b(a,a') between every pair of adjacent
// arbiter nodes, yielding the graph 𝒢 of §3.3. User–arbiter edges are
// not buffered (user nodes are ports, not processes). Neighbor
// orderings of original nodes are preserved, with each arbiter
// neighbor replaced by the corresponding buffer.
func Augment(t *Tree) (*Tree, error) {
	b := NewBuilder()
	// Recreate original nodes with the same IDs.
	for _, n := range t.nodes {
		b.AddNode(n.Name, n.Kind)
	}
	buffer := make(map[[2]int]int) // unordered arbiter pair -> buffer id
	pairKey := func(v, w int) [2]int {
		if v > w {
			v, w = w, v
		}
		return [2]int{v, w}
	}
	for v := range t.adj {
		for _, w := range t.adj[v] {
			if v > w {
				continue
			}
			if t.nodes[v].Kind == Arbiter && t.nodes[w].Kind == Arbiter {
				name := fmt.Sprintf("b(%s,%s)", t.nodes[v].Name, t.nodes[w].Name)
				buffer[pairKey(v, w)] = b.AddNode(name, Buffer)
			}
		}
	}
	// Re-add edges preserving each node's neighbor order. To keep the
	// builder's insertion-order adjacency faithful, walk each node's
	// ordered neighbor list and add each undirected edge once, but via
	// per-node explicit adjacency below.
	added := make(map[[2]int]bool)
	addOnce := func(v, w int) {
		k := pairKey(v, w)
		if !added[k] {
			added[k] = true
			b.AddEdge(v, w)
		}
	}
	for v := range t.adj {
		for _, w := range t.adj[v] {
			if t.nodes[v].Kind == Arbiter && t.nodes[w].Kind == Arbiter {
				addOnce(v, buffer[pairKey(v, w)])
			} else {
				addOnce(v, w)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return fixNeighborOrder(t, g, buffer), nil
}

// fixNeighborOrder restores, in g, each original node's neighbor order
// from t (with arbiter neighbors replaced by buffers). Buffer nodes
// have degree 2; their order is irrelevant.
func fixNeighborOrder(t, g *Tree, buffer map[[2]int]int) *Tree {
	pairKey := func(v, w int) [2]int {
		if v > w {
			v, w = w, v
		}
		return [2]int{v, w}
	}
	for v := range t.adj {
		want := make([]int, 0, len(t.adj[v]))
		for _, w := range t.adj[v] {
			if t.nodes[v].Kind == Arbiter && t.nodes[w].Kind == Arbiter {
				want = append(want, buffer[pairKey(v, w)])
			} else {
				want = append(want, w)
			}
		}
		g.adj[v] = want
	}
	// Edge indices are unaffected (same edge set); re-sort not needed.
	return g
}

// BinaryTree builds a tree with nUsers user leaves attached to a
// balanced binary arbiter tree. nUsers must be at least 1. Users are
// named u0..u(n-1); arbiter nodes a0... For nUsers == 1 a single
// arbiter node with one user is returned.
func BinaryTree(nUsers int) (*Tree, error) {
	if nUsers < 1 {
		return nil, fmt.Errorf("graph: need at least one user, got %d", nUsers)
	}
	b := NewBuilder()
	// Build a balanced binary tree of arbiter nodes with nUsers leaves
	// of the arbiter tree each adopting one user.
	nArb := nUsers - 1
	if nArb < 1 {
		nArb = 1
	}
	arb := make([]int, nArb)
	for i := range arb {
		arb[i] = b.AddNode(fmt.Sprintf("a%d", i), Arbiter)
	}
	for i := 1; i < nArb; i++ {
		b.AddEdge(arb[(i-1)/2], arb[i])
	}
	// Attach users to arbiter nodes with spare degree, preferring the
	// deepest (heap order: latter nodes are deeper).
	users := make([]int, nUsers)
	for i := range users {
		users[i] = b.AddNode(fmt.Sprintf("u%d", i), User)
	}
	// In a heap-shaped tree of nArb nodes, nodes with index >=
	// (nArb-1)/2... distribute users round-robin over leaves first.
	degree := make([]int, nArb)
	for i := 1; i < nArb; i++ {
		degree[(i-1)/2]++
		degree[i]++
	}
	ui := 0
	for maxDeg := 3; ui < nUsers; maxDeg++ {
		for i := nArb - 1; i >= 0 && ui < nUsers; i-- {
			for degree[i] < maxDeg && ui < nUsers {
				b.AddEdge(arb[i], users[ui])
				degree[i]++
				ui++
			}
		}
	}
	return b.Build()
}

// Line builds a path of nArb arbiter nodes with one user at each end
// (diameter maximal for its size).
func Line(nArb int) (*Tree, error) {
	if nArb < 1 {
		return nil, fmt.Errorf("graph: need at least one arbiter node")
	}
	b := NewBuilder()
	arb := make([]int, nArb)
	for i := range arb {
		arb[i] = b.AddNode(fmt.Sprintf("a%d", i), Arbiter)
	}
	for i := 1; i < nArb; i++ {
		b.AddEdge(arb[i-1], arb[i])
	}
	u0 := b.AddNode("u0", User)
	u1 := b.AddNode("u1", User)
	b.AddEdge(arb[0], u0)
	b.AddEdge(arb[nArb-1], u1)
	return b.Build()
}

// Star builds a single arbiter node with nUsers users attached.
func Star(nUsers int) (*Tree, error) {
	if nUsers < 1 {
		return nil, fmt.Errorf("graph: need at least one user")
	}
	b := NewBuilder()
	a := b.AddNode("a0", Arbiter)
	for i := 0; i < nUsers; i++ {
		u := b.AddNode(fmt.Sprintf("u%d", i), User)
		b.AddEdge(a, u)
	}
	return b.Build()
}

// Figure32 builds the seven-node example graph of Figure 3.2: three
// users u1..u3 around a three-node arbiter a1..a3 (a2 central),
// matching the picture's topology.
func Figure32() (*Tree, error) {
	b := NewBuilder()
	a1 := b.AddNode("a1", Arbiter)
	a2 := b.AddNode("a2", Arbiter)
	a3 := b.AddNode("a3", Arbiter)
	u1 := b.AddNode("u1", User)
	u2 := b.AddNode("u2", User)
	u3 := b.AddNode("u3", User)
	b.AddEdge(a1, u1)
	b.AddEdge(a1, a2)
	b.AddEdge(a2, u2)
	b.AddEdge(a2, a3)
	b.AddEdge(a3, u3)
	return b.Build()
}

// Random builds a pseudo-random tree with nArb arbiter nodes and
// nUsers users attached to random arbiters, deterministic in seed.
// Useful for randomized property tests across the arbiter packages.
func Random(seed int64, nArb, nUsers int) (*Tree, error) {
	if nArb < 1 || nUsers < 1 {
		return nil, fmt.Errorf("graph: need at least one arbiter and one user")
	}
	// A small linear-congruential generator keeps this package free of
	// math/rand while staying deterministic.
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	b := NewBuilder()
	arb := make([]int, nArb)
	for i := range arb {
		arb[i] = b.AddNode(fmt.Sprintf("a%d", i), Arbiter)
	}
	for i := 1; i < nArb; i++ {
		b.AddEdge(arb[next(i)], arb[i])
	}
	for i := 0; i < nUsers; i++ {
		u := b.AddNode(fmt.Sprintf("u%d", i), User)
		b.AddEdge(arb[next(nArb)], u)
	}
	return b.Build()
}
