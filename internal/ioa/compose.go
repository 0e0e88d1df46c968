package ioa

import (
	"encoding/binary"
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
// never own a key string — and is stable from then on. A tuple a
// Composite built holds each leaf state in that composite's leafCell,
// whose frame the encoding copies; At hands out the state itself.
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
func (t *TupleState) At(i int) State {
	if c, ok := t.parts[i].(*leafCell); ok {
		return c.state
	}
	return t.parts[i]
}

// Len returns the number of components.
func (t *TupleState) Len() int { return len(t.parts) }

// appendKey appends t's key to dst: len:key per part, byte for byte
// the JoinKeys framing, copying a cell's frame and any key that is
// already cached, and recursing through nested tuples.
func (t *TupleState) appendKey(dst []byte) []byte {
	if k := t.key.Load(); k != nil {
		return append(dst, *k...)
	}
	for _, p := range t.parts {
		switch p := p.(type) {
		case *leafCell:
			dst = append(dst, p.frame...)
			continue
		case *TupleState:
			if p.key.Load() == nil {
				dst = p.appendFrame(dst)
				continue
			}
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
// once, into a route per action number and a list of Enabled segments,
// all in the composite's numbering.
type Composite struct {
	name  string
	comps []Automaton
	sig   Signature
	parts []Class
	numbering
	nodes   []node    // a state's tuples: nodes[0] the state, parents first
	leaves  []*leaf   // in component order, depth first
	routes  []route   // by action number
	enabled []segment // what Enabled concatenates
	obsMemo *obs.MemoMetrics
}

// A node is a tuple: part `part` of node `parent`, the state of a
// composition of arity components.
type node struct{ parent, part, arity int }

// A leaf is a component stepped by its own NextNum and AppendEnabled,
// at part `part` of node `node`. up carries its action numbers to the
// composite's, through the renamings above it; cells maps its state
// keys to their *leafCell, and table lists them by index. mu
// serializes creating a cell; lookups take no lock.
type leaf struct {
	auto       Numbered
	node, part int
	up         []int32
	cells      sync.Map
	mu         sync.Mutex
	table      atomic.Pointer[[]*leafCell]
}

// A leafCell is leaf's one cell for a state key: the state, its
// JoinKeys frame len:key, built once, and its memo row — sound because
// Next and Enabled are deterministic functions of their arguments. The
// tuples a Composite builds hold cells at their leaf parts, so stepping
// reaches a row and encoding a frame with no hashing. Cells are
// immutable but for the row, and shared. index is the cell's place in
// its leaf's table: the leaf's cells are numbered 0, 1, … in creation
// order, with no gaps.
type leafCell struct {
	memoRow
	state      State
	leaf       *leaf
	frame, key string // key is frame's suffix
	index      uint64
}

// Key implements State, for the slots a tuple keeps its parts in.
func (c *leafCell) Key() string { return c.key }

// A memoRow is read without a lock: enabled is stored once, already in
// the composite's numbers; each route's successors are pushed onto next
// once computed.
type memoRow struct {
	enabled atomic.Pointer[[]int32]
	next    atomic.Pointer[memoNext]
}

type memoNext struct {
	route int32
	cells []*leafCell
	more  *memoNext
}

// cell is l's cell for the leaf part p: p itself when it is l's, and
// otherwise adopt's — a fast path the compiler inlines.
func (l *leaf) cell(p State) *leafCell {
	if c, ok := p.(*leafCell); ok && c.leaf == l {
		return c
	}
	return l.adopt(p)
}

// adopt is l's cell for a part that is not one of l's — a raw state
// from NewTupleState, or another composite's cell: the cell of p's key,
// created on first use.
func (l *leaf) adopt(p State) *leafCell {
	var k string
	if pc, ok := p.(*leafCell); ok {
		p, k = pc.state, pc.key
	} else {
		k = p.Key()
	}
	if c, ok := l.cells.Load(k); ok {
		return c.(*leafCell)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if c, ok := l.cells.Load(k); ok {
		return c.(*leafCell) // a racing creation won
	}
	var table []*leafCell
	if t := l.table.Load(); t != nil {
		table = *t
	}
	frame := strconv.Itoa(len(k)) + ":" + k
	// Kept: the cell outlives the call that lent p.
	c := &leafCell{state: Keep(p), leaf: l, frame: frame, key: frame[len(frame)-len(k):], index: uint64(len(table))}
	// Readers of the old table never look past its length, so append may
	// fill its spare capacity in place.
	table = append(table, c)
	l.table.Store(&table)
	l.cells.Store(c.key, c)
	return c
}

// A route steps one action: the leaves owning it, each by its own
// number for it, in the order the component-by-component cross product
// walks them, and the tuples they sit in (nodes[0] the state, parents
// first). An owner's state is part `part` of route node `at`. A route
// with no owners is an action some component cannot step, so neither
// can the composite.
type route struct {
	owners []owner
	nodes  []node
}

type owner struct {
	leaf, at, part int
	act            int32
}

// A segment of Enabled is a leaf's list (leaf ≥ 0) or a constant — a
// Hide's newly local inputs — counted while node `node` is well formed.
type segment struct {
	leaf, node int
	nums       []int32
}

var _ Numbered = (*Composite)(nil)

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
	c := &Composite{name: name, comps: comps, sig: sig, parts: parts, numbering: newNumbering(sig.Acts())}
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
		inner    *Composite // nil for a leaf
		leafBase int        // a leaf's leafBase is its leaf
	}
	sub := make([]nested, len(c.comps))
	// who lists, for each of c's actions, the components having it in
	// component order, with each one's number for it: a leaf's own, or
	// the inner composition's under the chain.
	type owned struct{ comp, act int32 }
	who := make([][]owned, len(c.acts))
	for i, comp := range c.comps {
		chain, under := wrappers(comp)
		inner, _ := under.(*Composite)
		n := &sub[i]
		*n = nested{inner: inner, leafBase: len(c.leaves)}
		// up carries the component's numbers to c's.
		var up []int32
		if inner == nil {
			num := Number(comp)
			for _, a := range num.Actions() {
				up = append(up, c.number(a))
			}
			c.enabled = append(c.enabled, segment{leaf: n.leafBase})
			c.leaves = append(c.leaves, &leaf{auto: num, part: i, up: up})
		} else {
			var renames []*Mapping // innermost first
			for j := len(chain) - 1; j >= 0; j-- {
				if r, ok := chain[j].(*Renamed); ok {
					renames = append(renames, r.m)
				}
			}
			for _, a := range inner.acts {
				up = append(up, c.number(applyAll(renames, a)))
			}
			nodeBase := len(c.nodes)
			c.nodes = append(c.nodes, node{0, i, len(inner.comps)})
			for _, nd := range inner.nodes[1:] {
				c.nodes = append(c.nodes, node{nd.parent + nodeBase, nd.part, nd.arity})
			}
			for _, l := range inner.leaves {
				c.leaves = append(c.leaves, &leaf{auto: l.auto, node: nodeBase + l.node, part: l.part, up: mapNums(up, l.up)})
			}
			for _, seg := range inner.enabled {
				if seg.leaf >= 0 {
					seg.leaf += n.leafBase
				}
				c.enabled = append(c.enabled, segment{seg.leaf, seg.node + nodeBase, mapNums(up, seg.nums)})
			}
			// A Hide appends its newly local inputs after everything under
			// it, renamed by the Renames over it.
			for j, below := len(chain)-1, 0; j >= 0; j-- {
				switch w := chain[j].(type) {
				case *Renamed:
					below++
				case *hidden:
					if len(w.newlyLocal) > 0 {
						var nums []int32
						for _, a := range w.newlyLocal {
							nums = append(nums, c.number(applyAll(renames[below:], a)))
						}
						c.enabled = append(c.enabled, segment{leaf: -1, nums: nums})
					}
				}
			}
		}
		for k, j := range up {
			who[j] = append(who[j], owned{int32(i), int32(k)})
		}
	}

	c.routes = make([]route, len(c.acts))
actions:
	for id, comps := range who {
		var owners []owner
		for _, w := range comps {
			n := &sub[w.comp]
			if n.inner == nil {
				owners = append(owners, owner{leaf: n.leafBase, act: w.act})
				continue
			}
			r := &n.inner.routes[w.act]
			if r.owners == nil {
				continue actions // the component cannot step a, so neither can c
			}
			for _, o := range r.owners {
				owners = append(owners, owner{leaf: n.leafBase + o.leaf, act: o.act})
			}
		}
		c.routes[id] = c.route(owners)
	}
}

// mapNums returns nums carried through the table to.
func mapNums(to, nums []int32) []int32 {
	out := make([]int32, len(nums))
	for k, i := range nums {
		out[k] = to[i]
	}
	return out
}

// route finishes a route over owners: the nodes on their paths to the
// root, in node order, and each owner's place among them.
func (c *Composite) route(owners []owner) route {
	var at []int
	for _, o := range owners {
		for n := c.leaves[o.leaf].node; n >= 0 && !slices.Contains(at, n); n = c.nodes[n].parent {
			at = append(at, n)
		}
	}
	slices.Sort(at)
	r := route{owners: owners, nodes: make([]node, len(at))}
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

// applyAll maps a through renames, innermost first.
func applyAll(renames []*Mapping, a Action) Action {
	for _, m := range renames {
		a = m.Apply(a)
	}
	return a
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

// leafNext is leaf o.leaf's successors of part p by its action o.act,
// through its cell's memo row, where route id's entry holds them.
func (c *Composite) leafNext(id int32, o owner, p State) []*leafCell {
	l := c.leaves[o.leaf]
	row := l.cell(p)
	for e := row.next.Load(); e != nil; e = e.more {
		if e.route == id {
			if m := c.obsMemo; m != nil {
				m.NextHit.Add(1)
			}
			return e.cells
		}
	}
	if m := c.obsMemo; m != nil {
		m.NextMiss.Add(1)
	}
	// Racing goroutines push equal lists; lookups find the first.
	e := &memoNext{route: id}
	l.auto.NextNum(nil, row.state, o.act, func(s State) bool {
		e.cells = append(e.cells, l.cell(s))
		return true
	})
	for {
		e.more = row.next.Load()
		if row.next.CompareAndSwap(e.more, e) {
			return e.cells
		}
	}
}

// leafEnabled is leaf i's AppendEnabled of part p in the composite's
// numbers, through its cell's memo row: the same actions in the same
// order.
func (c *Composite) leafEnabled(i int, p State) []int32 {
	row := c.leaves[i].cell(p)
	if en := row.enabled.Load(); en != nil {
		if m := c.obsMemo; m != nil {
			m.EnabledHit.Add(1)
		}
		return *en
	}
	if m := c.obsMemo; m != nil {
		m.EnabledMiss.Add(1)
	}
	l := c.leaves[i]
	en := l.auto.AppendEnabled(nil, row.state)
	for k, n := range en {
		en[k] = l.up[n]
	}
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
// states, adopted into this composite's cells.
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
		t := NewTupleState(row)
		// The tuples under t are as new as t, built by the nested
		// compositions' Start, so their leaf parts move into cells in place.
		tuples := resolve(c.nodes, t, nil)
		for _, l := range c.leaves {
			p := &tuples[l.node].parts[l.part]
			*p = l.cell(*p)
		}
		out = append(out, t)
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

// Encoder returns the encoding the sequential kernel interns a's states
// under. Over a Hide/Rename chain ending in a composition it is tag 1
// and the uvarint index of each leaf's cell, in leaf order — injective,
// as a leaf has one cell per state key and uvarints delimit themselves
// — or tag 0 and AppendState for a state whose tuples are not the
// composition's. For any other automaton it is AppendState. Indices
// follow the order cells were created in, so the bytes order nothing.
func Encoder(a Automaton) func(dst []byte, s State) []byte {
	_, under := wrappers(a)
	if c, ok := under.(*Composite); ok {
		return c.appendCells
	}
	return AppendState
}

// A Decodable automaton can rebuild any of its states from the bytes
// AppendState writes for it.
type Decodable interface {
	Decode(enc []byte) (State, error)
}

// Decoder returns the inverse of Encoder(a) when a is a Hide/Rename
// chain ending in a composition or in a Decodable, and nil otherwise.
// Over a composition the function it returns rebuilds a tag-1 encoding
// as the composition's tuples, each leaf part the cell its index names,
// laid out in sc — borrowed until sc is reset — or on the heap when sc
// is nil; a tag-0 encoding decodes to nil. Encodings are only
// meaningful to the composition that made them. Over a Decodable it
// ignores sc and panics on an encoding Decode refuses.
func Decoder(a Automaton) func(sc *Scratch, enc []byte) State {
	_, under := wrappers(a)
	switch u := under.(type) {
	case *Composite:
		return u.decodeCells
	case Decodable:
		return func(_ *Scratch, enc []byte) State {
			s, err := u.Decode(enc)
			if err != nil {
				panic(fmt.Sprintf("ioa: %s: decode: %v", a.Name(), err))
			}
			return s
		}
	}
	return nil
}

// decodeCells is Decoder's inverse of appendCells.
func (c *Composite) decodeCells(sc *Scratch, enc []byte) State {
	if len(enc) == 0 || enc[0] != 1 {
		return nil
	}
	var tupleStack [8]*TupleState
	tuples := tupleStack[:0]
	for _, n := range c.nodes {
		t := sc.blank(n.arity)
		if n.parent >= 0 {
			tuples[n.parent].parts[n.part] = t
		}
		tuples = append(tuples, t)
	}
	enc = enc[1:]
	for _, l := range c.leaves {
		i, w := binary.Uvarint(enc)
		if w <= 0 {
			panic(fmt.Sprintf("ioa: %s: decode: truncated cell encoding", c.name))
		}
		tuples[l.node].parts[l.part], enc = (*l.table.Load())[i], enc[w:]
	}
	return tuples[0]
}

// appendCells is Encoder's encoding of c's states.
func (c *Composite) appendCells(dst []byte, s State) []byte {
	var tupleStack [8]*TupleState
	tuples := resolve(c.nodes, s, tupleStack[:0])
	if slices.Contains(tuples, nil) {
		return AppendState(append(dst, 0), s)
	}
	dst = append(dst, 1)
	for _, l := range c.leaves {
		dst = binary.AppendUvarint(dst, l.cell(tuples[l.node].parts[l.part]).index)
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
	i, ok := c.index[a]
	return !ok || c.NextNum(sc, s, i, yield)
}

// NextNum implements Numbered: Next by the action's route.
func (c *Composite) NextNum(sc *Scratch, s State, i int32, yield func(State) bool) bool {
	r := &c.routes[i]
	if r.owners == nil {
		return true
	}
	// Arrays keep the walk on the stack for up to four nodes and owners.
	var fromStack, toStack [4]*TupleState
	from := resolve(r.nodes, s, fromStack[:0])
	if slices.Contains(from, nil) {
		return true
	}
	var choiceStack [4][]*leafCell
	var idxStack [4]int
	choices, idx := choiceStack[:0], idxStack[:0]
	for _, o := range r.owners {
		next := c.leafNext(i, o, from[o.at].parts[o.part])
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

// AppendEnabled implements Numbered. By Corollary 3 of the paper, a
// locally-controlled action of component i is enabled in the
// composition iff it is enabled in component i (all other components
// see it as an input, which is always enabled): the leaves' rows and
// the constant segments, concatenated.
func (c *Composite) AppendEnabled(dst []int32, s State) []int32 {
	var tupleStack [8]*TupleState
	tuples := resolve(c.nodes, s, tupleStack[:0])
	if tuples[0] == nil {
		return dst
	}
	for _, seg := range c.enabled {
		t := tuples[seg.node]
		if t == nil {
			continue
		}
		if seg.leaf >= 0 {
			dst = append(dst, c.leafEnabled(seg.leaf, t.parts[c.leaves[seg.leaf].part])...)
		} else {
			dst = append(dst, seg.nums...)
		}
	}
	return dst
}

// Enabled implements Automaton: AppendEnabled into a stack buffer,
// named, so the result is allocated once at its final size.
func (c *Composite) Enabled(s State) []Action {
	var buf [64]int32
	return c.names(c.AppendEnabled(buf[:0], s))
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
