package ioa

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// A TupleState is a state of a composition: one component state per
// component automaton, in component order (§2.1.1). Its Key is the
// JoinKeys framing of the part keys; it is built on first use, not at
// construction — exploration encodes most tuples once through
// AppendState, finds them already interned and drops them, so they
// never own a key string — and is stable from then on.
type TupleState struct {
	parts []State
	// key caches Key() once something asks for it. Tuples are shared by
	// the parallel workers; racing builders store equal strings.
	key atomic.Pointer[string]
	// borrowed marks a tuple built in a Scratch: valid until that
	// Scratch is reset, and what Keep copies.
	borrowed bool
}

var _ State = (*TupleState)(nil)

// NewTupleState builds a tuple state from component states.
func NewTupleState(parts []State) *TupleState {
	return &TupleState{parts: append([]State(nil), parts...)}
}

// Key implements State.
func (t *TupleState) Key() string {
	if k := t.key.Load(); k != nil {
		return *k
	}
	k := string(t.appendKey(make([]byte, 0, 512)))
	t.key.Store(&k)
	return k
}

// At returns the i-th component state (the paper's a|Aᵢ projection on
// states).
func (t *TupleState) At(i int) State { return t.parts[i] }

// Len returns the number of components.
func (t *TupleState) Len() int { return len(t.parts) }

// appendKey appends t's key to dst: len:key per part, byte for byte
// the JoinKeys framing, recursing through nested tuples and copying
// any key that is already cached.
func (t *TupleState) appendKey(dst []byte) []byte {
	if k := t.key.Load(); k != nil {
		return append(dst, *k...)
	}
	for _, p := range t.parts {
		if pt, ok := p.(*TupleState); ok && pt.key.Load() == nil {
			dst = pt.appendFrame(dst)
			continue
		}
		k := p.Key()
		dst = strconv.AppendInt(dst, int64(len(k)), 10)
		dst = append(dst, ':')
		dst = append(dst, k...)
	}
	return dst
}

// appendFrame appends t's JoinKeys frame, "n:" and its n key bytes, in
// one pass: it reserves three digits for n (a nested composition's key
// is usually 100–999 bytes long), streams the key after them and then
// writes n — moving the key first when n has another number of digits.
func (t *TupleState) appendFrame(dst []byte) []byte {
	at := len(dst)
	dst = t.appendKey(append(dst, "000:"...))
	body, end := at+4, len(dst)
	var digits [20]byte
	n := strconv.AppendInt(digits[:0], int64(end-body), 10)
	if shift := len(n) - 3; shift != 0 {
		if shift > 0 {
			dst = slices.Grow(dst, shift)
		}
		dst = dst[:end+shift]
		copy(dst[body+shift:], dst[body:end])
	}
	copy(dst[at:], n)
	dst[at+len(n)] = ':'
	return dst
}

// A Composite is the composition A = ∏ᵢAᵢ of compatible automata
// (§2.1.1). Components synchronize on shared actions: when the
// composition performs π, every component with π in its signature
// performs π and every other component does not change state. The
// partition of the composition is the union of the components'
// partitions, with class names qualified by the component name.
//
// Compose compiles it down to its leaves, the components at any depth
// that are not a Hide/Rename chain over a composition. Hiding and
// renaming change only the signature (§2.1.2, §2.1.3): they are resolved
// once, into a route per action and a list of Enabled segments.
type Composite struct {
	name    string
	comps   []Automaton
	sig     Signature
	parts   []Class
	nodes   []node  // a state's tuples: nodes[0] the state, parents first
	leaves  []*leaf // in component order, depth first
	routes  map[Action]route
	enabled []segment // what Enabled concatenates
	obsMemo *obs.MemoMetrics
}

// A node is a tuple: part `part` of node `parent`, the state of a
// composition of arity components.
type node struct{ parent, part, arity int }

// A leaf is a component stepped by its own Next and Enabled, at part
// `part` of node `node`. renames carry its actions to the composite's,
// innermost first; rows maps its state keys to *memoRow — sound because
// Next and Enabled are deterministic functions of their arguments.
type leaf struct {
	auto       Automaton
	node, part int
	renames    []*Mapping
	rows       sync.Map
}

// A memoRow is read without a lock: enabled is stored once, already
// renamed; each route's successors are pushed onto next once computed.
type memoRow struct {
	enabled atomic.Pointer[[]Action]
	next    atomic.Pointer[memoNext]
}

type memoNext struct {
	route  int
	states []State
	more   *memoNext
}

// A route steps one action: the leaves owning it, each by its own name
// for it, in the order the component-by-component cross product walks
// them, and the tuples they sit in (nodes[0] the state, parents first).
// An owner's state is part `part` of route node `at`.
type route struct {
	id     int
	owners []owner
	nodes  []node
}

type owner struct {
	leaf, at, part int
	act            Action
}

// A segment of Enabled is a leaf's list (leaf ≥ 0) or a constant — a
// Hide's newly local inputs — counted while node `node` is well formed.
type segment struct {
	leaf, node int
	acts       []Action
}

var _ Automaton = (*Composite)(nil)

// Compose forms the composition of the given automata, which must be
// compatible (§2.1.1). At least one component is required.
func Compose(name string, comps ...Automaton) (*Composite, error) {
	if len(comps) == 0 {
		return nil, fmt.Errorf("ioa: compose %s: no components", name)
	}
	sigs := make([]Signature, len(comps))
	for i, c := range comps {
		sigs[i] = c.Sig()
	}
	sig, err := ComposeSignatures(sigs...)
	if err != nil {
		return nil, fmt.Errorf("ioa: compose %s: %w", name, err)
	}
	var parts []Class
	for _, c := range comps {
		for _, cl := range c.Parts() {
			parts = append(parts, Class{Name: c.Name() + "/" + cl.Name, Actions: cl.Actions.Clone()})
		}
	}
	c := &Composite{name: name, comps: comps, sig: sig, parts: parts}
	c.compile()
	return c, nil
}

// compile builds the nodes, leaves, segments and routes. A nested
// composition was compiled by its own Compose: its tables are copied
// in, renumbered and carried through the chain over it, so compiling
// is linear in the signature times the depth.
func (c *Composite) compile() {
	c.nodes = []node{{parent: -1, arity: len(c.comps)}}
	type nested struct {
		inner              *Composite  // nil for a leaf
		chain              []Automaton // outermost first
		nodeBase, leafBase int         // a leaf's leafBase is its leaf
	}
	sub := make([]nested, len(c.comps))
	for i, comp := range c.comps {
		chain, under := wrappers(comp)
		inner, _ := under.(*Composite)
		n := &sub[i]
		*n = nested{inner, chain, len(c.nodes), len(c.leaves)}
		if inner == nil {
			c.enabled = append(c.enabled, segment{leaf: n.leafBase})
			c.leaves = append(c.leaves, &leaf{auto: comp, part: i})
			continue
		}
		var renames []*Mapping // innermost first
		for j := len(chain) - 1; j >= 0; j-- {
			if r, ok := chain[j].(*Renamed); ok {
				renames = append(renames, r.m)
			}
		}
		c.nodes = append(c.nodes, node{0, i, len(inner.comps)})
		for _, nd := range inner.nodes[1:] {
			c.nodes = append(c.nodes, node{nd.parent + n.nodeBase, nd.part, nd.arity})
		}
		for _, l := range inner.leaves {
			c.leaves = append(c.leaves, &leaf{auto: l.auto, node: n.nodeBase + l.node, part: l.part,
				renames: append(slices.Clip(l.renames), renames...)})
		}
		for _, seg := range inner.enabled {
			if seg.leaf >= 0 {
				seg.leaf += n.leafBase
			}
			c.enabled = append(c.enabled, segment{seg.leaf, seg.node + n.nodeBase, applyAll(renames, seg.acts)})
		}
		// A Hide appends its newly local inputs after everything under
		// it, renamed by the Renames over it.
		for j, below := len(chain)-1, 0; j >= 0; j-- {
			switch w := chain[j].(type) {
			case *Renamed:
				below++
			case *hidden:
				if len(w.newlyLocal) > 0 {
					c.enabled = append(c.enabled, segment{leaf: -1, acts: applyAll(renames[below:], w.newlyLocal)})
				}
			}
		}
	}

	who := make(map[Action][]int) // the components having each action, in order
	for i, comp := range c.comps {
		for a := range comp.Sig().Acts() {
			who[a] = append(who[a], i)
		}
	}
	c.routes = make(map[Action]route)
actions:
	for id, a := range c.sig.Acts().Sorted() {
		var owners []owner
		for _, i := range who[a] {
			n := &sub[i]
			if n.inner == nil {
				owners = append(owners, owner{leaf: n.leafBase, act: a})
				continue
			}
			ia, ok := a, true // what the chain's Renames pass down
			for _, w := range n.chain {
				if r, isRename := w.(*Renamed); isRename && ok {
					ia, ok = r.inv[ia]
				}
			}
			r, found := n.inner.routes[ia]
			if !ok || !found {
				continue actions // the component cannot step a, so neither can c
			}
			for _, o := range r.owners {
				owners = append(owners, owner{leaf: n.leafBase + o.leaf, act: o.act})
			}
		}
		c.routes[a] = c.route(id, owners)
	}
}

// route finishes a route over owners: the nodes on their paths to the
// root, in node order, and each owner's place among them.
func (c *Composite) route(id int, owners []owner) route {
	var at []int
	for _, o := range owners {
		for n := c.leaves[o.leaf].node; n >= 0 && !slices.Contains(at, n); n = c.nodes[n].parent {
			at = append(at, n)
		}
	}
	slices.Sort(at)
	r := route{id: id, owners: owners, nodes: make([]node, len(at))}
	for k, n := range at {
		nd := c.nodes[n]
		r.nodes[k] = node{parent: slices.Index(at, nd.parent), part: nd.part, arity: nd.arity}
	}
	for k, o := range owners {
		r.owners[k].at, r.owners[k].part = slices.Index(at, c.leaves[o.leaf].node), c.leaves[o.leaf].part
	}
	return r
}

// wrappers splits a into its Hide/Rename chain, outermost first, and
// the automaton under it.
func wrappers(a Automaton) ([]Automaton, Automaton) {
	var chain []Automaton
	for {
		switch w := a.(type) {
		case *hidden:
			chain, a = append(chain, w), w.inner
		case *Renamed:
			chain, a = append(chain, w), w.inner
		default:
			return chain, a
		}
	}
}

// applyAll maps acts through renames, innermost first.
func applyAll(renames []*Mapping, acts []Action) []Action {
	if len(renames) == 0 || len(acts) == 0 {
		return acts
	}
	out := make([]Action, len(acts))
	for i, a := range acts {
		for _, m := range renames {
			a = m.Apply(a)
		}
		out[i] = a
	}
	return out
}

// SetObs attaches (or, with nil, detaches) memo-cache metrics.
// Observability never changes stepping behavior — only hit/miss
// counters. Not safe to toggle while other goroutines are stepping
// the composite.
func (c *Composite) SetObs(o *obs.Obs) {
	c.obsMemo = nil
	if o != nil {
		c.obsMemo = o.Memo
	}
}

// SetObsDeep applies SetObs to every Composite in the automaton tree,
// descending through Hide/Rename wrappers and nested compositions —
// the one call CLI entry points use to instrument a closed system.
func SetObsDeep(a Automaton, o *obs.Obs) {
	switch w := a.(type) {
	case *Composite:
		w.SetObs(o)
		for _, comp := range w.comps {
			SetObsDeep(comp, o)
		}
	case *hidden:
		SetObsDeep(w.inner, o)
	case *Renamed:
		SetObsDeep(w.inner, o)
	default:
		// Extension point for wrappers defined outside this package
		// (e.g. the faults crash wrapper): they implement SetObs and
		// recurse into their inner automaton themselves.
		if x, ok := a.(interface{ SetObs(*obs.Obs) }); ok {
			x.SetObs(o)
		}
	}
}

// row is leaf i's memo row for state s, created empty on first use.
func (c *Composite) row(i int, s State) *memoRow {
	rows := &c.leaves[i].rows
	if r, ok := rows.Load(s.Key()); ok {
		return r.(*memoRow)
	}
	r, _ := rows.LoadOrStore(s.Key(), new(memoRow))
	return r.(*memoRow)
}

// leafNext is leaf o.leaf's successors of s by o.act, through its memo
// row, where route id's entry holds them.
func (c *Composite) leafNext(id int, o owner, s State) []State {
	row := c.row(o.leaf, s)
	for e := row.next.Load(); e != nil; e = e.more {
		if e.route == id {
			if m := c.obsMemo; m != nil {
				m.NextHit.AddShard(o.leaf, 1)
			}
			return e.states
		}
	}
	if m := c.obsMemo; m != nil {
		m.NextMiss.AddShard(o.leaf, 1)
	}
	// Racing goroutines push equal lists; lookups find the first.
	e := &memoNext{route: id, states: Successors(c.leaves[o.leaf].auto, s, o.act)}
	for {
		e.more = row.next.Load()
		if row.next.CompareAndSwap(e.more, e) {
			return e.states
		}
	}
}

// leafEnabled is leaf i's Enabled(s) in the composite's actions,
// through its memo row: the same actions in the same order.
func (c *Composite) leafEnabled(i int, s State) []Action {
	row := c.row(i, s)
	if en := row.enabled.Load(); en != nil {
		if m := c.obsMemo; m != nil {
			m.EnabledHit.AddShard(i, 1)
		}
		return *en
	}
	if m := c.obsMemo; m != nil {
		m.EnabledMiss.AddShard(i, 1)
	}
	l := c.leaves[i]
	en := applyAll(l.renames, l.auto.Enabled(s))
	row.enabled.Store(&en)
	return en
}

// MustCompose is Compose but panics on error.
func MustCompose(name string, comps ...Automaton) *Composite {
	c, err := Compose(name, comps...)
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements Automaton.
func (c *Composite) Name() string { return c.name }

// Sig implements Automaton.
func (c *Composite) Sig() Signature { return c.sig }

// Components returns the component automata (do not mutate).
func (c *Composite) Components() []Automaton { return c.comps }

// Start implements Automaton: the Cartesian product of component start
// states.
func (c *Composite) Start() []State {
	combos := [][]State{nil}
	for _, comp := range c.comps {
		starts := comp.Start()
		next := make([][]State, 0, len(combos)*len(starts))
		for _, prefix := range combos {
			for _, s := range starts {
				row := append(append([]State(nil), prefix...), s)
				next = append(next, row)
			}
		}
		combos = next
	}
	out := make([]State, 0, len(combos))
	for _, row := range combos {
		out = append(out, NewTupleState(row))
	}
	return out
}

// resolve appends to dst the tuple of each of nodes in s, nil where that
// is not its composition's state — another automaton's state, a tuple of
// the wrong arity (a truncated domain tuple), or a part of one. Such a
// component has no step and nothing enabled but what wrappers add.
func resolve(nodes []node, s State, dst []*TupleState) []*TupleState {
	for _, n := range nodes {
		p := s
		if n.parent >= 0 {
			if dst[n.parent] == nil {
				dst = append(dst, nil)
				continue
			}
			p = dst[n.parent].parts[n.part]
		}
		ts, ok := p.(*TupleState)
		if !ok || len(ts.parts) != n.arity {
			ts = nil
		}
		dst = append(dst, ts)
	}
	return dst
}

// Next implements Automaton: all components sharing the action step
// simultaneously; others are unchanged. Every leaf owning the action
// steps at once — on the arbiter systems most actions have two owners —
// and the others stay. An odometer over the owners' successor lists,
// first owner most significant, walks their cross product in the order
// stepping each nested composition and then the one over it would. A
// successor is a copy of the parent's tuple and of each nested tuple an
// owner sits in, owners' slots overwritten, in sc when there is one; an
// owner that cannot step, or sits in a malformed tuple, means no step at
// all.
func (c *Composite) Next(sc *Scratch, s State, a Action, yield func(State) bool) bool {
	r, ok := c.routes[a]
	if !ok {
		return true
	}
	// Arrays keep the walk on the stack for up to four nodes and owners.
	var fromStack, toStack [4]*TupleState
	from := resolve(r.nodes, s, fromStack[:0])
	if slices.Contains(from, nil) {
		return true
	}
	var choiceStack [4][]State
	var idxStack [4]int
	choices, idx := choiceStack[:0], idxStack[:0]
	for _, o := range r.owners {
		next := c.leafNext(r.id, o, from[o.at].parts[o.part])
		if len(next) == 0 {
			return true
		}
		choices, idx = append(choices, next), append(idx, 0)
	}
	to := append(toStack[:0], from...)
	for {
		for k, n := range r.nodes {
			to[k] = sc.tuple(from[k].parts)
			if n.parent >= 0 {
				to[n.parent].parts[n.part] = to[k]
			}
		}
		for k, o := range r.owners {
			to[o.at].parts[o.part] = choices[k][idx[k]]
		}
		if !yield(to[0]) {
			return false
		}
		k := len(r.owners) - 1
		for ; k >= 0; k-- {
			if idx[k]++; idx[k] < len(choices[k]) {
				break
			}
			idx[k] = 0
		}
		if k < 0 {
			return true
		}
	}
}

// Enabled implements Automaton. By Corollary 3 of the paper, a
// locally-controlled action of component i is enabled in the
// composition iff it is enabled in component i (all other components
// see it as an input, which is always enabled). The leaves' rows and
// the constant segments are gathered first, so the result is allocated
// once at its final size.
func (c *Composite) Enabled(s State) []Action {
	var tupleStack [8]*TupleState
	tuples := resolve(c.nodes, s, tupleStack[:0])
	if tuples[0] == nil {
		return nil
	}
	var listStack [32][]Action
	lists, n := listStack[:0], 0
	for _, seg := range c.enabled {
		t := tuples[seg.node]
		if t == nil {
			continue
		}
		en := seg.acts
		if seg.leaf >= 0 {
			en = c.leafEnabled(seg.leaf, t.parts[c.leaves[seg.leaf].part])
		}
		lists, n = append(lists, en), n+len(en)
	}
	if n == 0 {
		return nil
	}
	out := make([]Action, 0, n)
	for _, en := range lists {
		out = append(out, en...)
	}
	return out
}

// Parts implements Automaton.
func (c *Composite) Parts() []Class { return c.parts }

// ProjectExecution computes x|Aᵢ (Lemma 1): the execution of component
// i induced by an execution x of the composition, obtained by deleting
// steps whose action is not an action of Aᵢ and projecting states.
func (c *Composite) ProjectExecution(x *Execution, i int) (*Execution, error) {
	if i < 0 || i >= len(c.comps) {
		return nil, fmt.Errorf("ioa: component index %d out of range", i)
	}
	comp := c.comps[i]
	acts := comp.Sig().Acts()
	first, ok := x.States[0].(*TupleState)
	if !ok {
		return nil, fmt.Errorf("ioa: execution state is not a tuple state")
	}
	proj := &Execution{Auto: comp, States: []State{first.At(i)}}
	for k, a := range x.Acts {
		if !acts.Has(a) {
			continue
		}
		ts, ok := x.States[k+1].(*TupleState)
		if !ok {
			return nil, fmt.Errorf("ioa: execution state is not a tuple state")
		}
		proj.Acts = append(proj.Acts, a)
		proj.States = append(proj.States, ts.At(i))
	}
	return proj, nil
}
