package ioa

import (
	"fmt"
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
	k := string(t.appendKey(make([]byte, 0, t.keyLen())))
	t.key.Store(&k)
	return k
}

// At returns the i-th component state (the paper's a|Aᵢ projection on
// states).
func (t *TupleState) At(i int) State { return t.parts[i] }

// Len returns the number of components.
func (t *TupleState) Len() int { return len(t.parts) }

// keyLen is len(t.Key()) without building the key.
func (t *TupleState) keyLen() int {
	if k := t.key.Load(); k != nil {
		return len(*k)
	}
	n := 0
	for _, p := range t.parts {
		n += framedLen(partKeyLen(p))
	}
	return n
}

// partKeyLen is len(p.Key()), computed without forcing a nested
// tuple's key.
func partKeyLen(p State) int {
	if pt, ok := p.(*TupleState); ok {
		return pt.keyLen()
	}
	return len(p.Key())
}

// framedLen is the length of one JoinKeys frame "n:" + n key bytes.
func framedLen(n int) int {
	digits := 1
	for m := n; m >= 10; m /= 10 {
		digits++
	}
	return digits + 1 + n
}

// appendKey appends t's key to dst: len:key per part, byte for byte
// the JoinKeys framing, recursing through nested tuples and copying
// any key that is already cached.
func (t *TupleState) appendKey(dst []byte) []byte {
	if k := t.key.Load(); k != nil {
		return append(dst, *k...)
	}
	for _, p := range t.parts {
		dst = strconv.AppendInt(dst, int64(partKeyLen(p)), 10)
		dst = append(dst, ':')
		dst = AppendState(dst, p)
	}
	return dst
}

// A Composite is the composition A = ∏ᵢAᵢ of compatible automata
// (§2.1.1). Components synchronize on shared actions: when the
// composition performs π, every component with π in its signature
// performs π and every other component does not change state. The
// partition of the composition is the union of the components'
// partitions, with class names qualified by the component name.
type Composite struct {
	name  string
	comps []Automaton
	sig   Signature
	parts []Class
	// who[a] lists the indices of components having action a.
	who map[Action][]int
	// classOwner[i] is the component index owning composite class i.
	classOwner []int
	// memo caches per-component transition and enabled-set results,
	// one cache per leaf component. Sound because Automaton requires
	// Next/Enabled to be deterministic functions of their arguments;
	// safe for concurrent exploration because each cache is sharded
	// behind RW mutexes. A component that is itself a composition
	// (under Hide/Rename) has a nil entry and is stepped directly: its
	// own leaves are memoised already, and its state key is nearly the
	// whole global state, so a row per inner state would be retained
	// for close to no hits.
	memo []*compMemo
	// obsMemo, when non-nil, counts cache hits and misses. Writes are
	// sharded by the memo hash, so concurrent workers touching
	// different shards also touch different counter stripes.
	obsMemo *obs.MemoMetrics
}

// memoShardCount shards each component cache to keep lock contention
// low under parallel exploration.
const memoShardCount = 16

// compMemo is one component's transition/enabled cache.
type compMemo struct {
	shards [memoShardCount]memoShard
}

type memoShard struct {
	mu sync.RWMutex
	// next maps a component state key to its per-action successor
	// lists (a present entry means "computed", even when empty).
	next map[string]map[Action][]State
	// enabled maps a component state key to the component's enabled
	// locally-controlled actions, cached verbatim (a present entry means
	// "computed", even when the slice is nil).
	enabled map[string][]Action
}

// memoHash assigns a state key to a cache shard (FNV-1a over the last
// 32 bytes — structured keys share long prefixes, so the tail carries
// the entropy and bounding the scan keeps hashing O(1) on big states).
func memoHash(key string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	start := 0
	if len(key) > 32 {
		start = len(key) - 32
	}
	h := uint32(offset32)
	for i := start; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h
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
	who := make(map[Action][]int)
	for i, c := range comps {
		for a := range c.Sig().Acts() {
			who[a] = append(who[a], i)
		}
	}
	var parts []Class
	var owner []int
	for i, c := range comps {
		for _, cl := range c.Parts() {
			parts = append(parts, Class{
				Name:    c.Name() + "/" + cl.Name,
				Actions: cl.Actions.Clone(),
			})
			owner = append(owner, i)
		}
	}
	memo := make([]*compMemo, len(comps))
	for i, c := range comps {
		if _, nested := Unwrap(c).(*Composite); !nested {
			memo[i] = new(compMemo)
		}
	}
	return &Composite{
		name: name, comps: comps, sig: sig, parts: parts, who: who, classOwner: owner,
		memo: memo,
	}, nil
}

// SetObs attaches (or, with nil, detaches) memo-cache metrics.
// Observability never changes stepping behavior — only hit/miss
// counters. Not safe to toggle while other goroutines are stepping
// the composite.
func (c *Composite) SetObs(o *obs.Obs) {
	if o == nil {
		c.obsMemo = nil
		return
	}
	c.obsMemo = o.Memo
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

// compNext is comp[i].Next(s, a): through the memo layer when
// component i has one, collected borrowed in sc when it has none and
// the walk has a scratch.
func (c *Composite) compNext(sc *Scratch, i int, s State, a Action) []State {
	memo := c.memo[i]
	if memo == nil {
		if sc != nil {
			return sc.next(c.comps[i], s, a)
		}
		return c.comps[i].Next(s, a)
	}
	key := s.Key()
	h := memoHash(key)
	sh := &memo.shards[h%memoShardCount]
	sh.mu.RLock()
	if row, ok := sh.next[key]; ok {
		if out, ok := row[a]; ok {
			sh.mu.RUnlock()
			if m := c.obsMemo; m != nil {
				m.NextHit.AddShard(int(h), 1)
			}
			return out
		}
	}
	sh.mu.RUnlock()
	if m := c.obsMemo; m != nil {
		m.NextMiss.AddShard(int(h), 1)
	}
	out := c.comps[i].Next(s, a)
	sh.mu.Lock()
	if sh.next == nil {
		sh.next = make(map[string]map[Action][]State)
	}
	row, ok := sh.next[key]
	if !ok {
		row = make(map[Action][]State)
		sh.next[key] = row
	}
	row[a] = out
	sh.mu.Unlock()
	return out
}

// compEnabled is comp[i].Enabled(s), through the memo layer when
// component i has one. The component's result is cached verbatim
// (same actions, same order), so callers observe exactly the uncached
// behavior.
func (c *Composite) compEnabled(i int, s State) []Action {
	memo := c.memo[i]
	if memo == nil {
		return c.comps[i].Enabled(s)
	}
	key := s.Key()
	h := memoHash(key)
	sh := &memo.shards[h%memoShardCount]
	sh.mu.RLock()
	if out, ok := sh.enabled[key]; ok {
		sh.mu.RUnlock()
		if m := c.obsMemo; m != nil {
			m.EnabledHit.AddShard(int(h), 1)
		}
		return out
	}
	sh.mu.RUnlock()
	if m := c.obsMemo; m != nil {
		m.EnabledMiss.AddShard(int(h), 1)
	}
	out := c.comps[i].Enabled(s)
	sh.mu.Lock()
	if sh.enabled == nil {
		sh.enabled = make(map[string][]Action)
	}
	sh.enabled[key] = out
	sh.mu.Unlock()
	return out
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

// tuple returns s as a state of c — a tuple with one part per
// component — or nil for anything else: a state of another automaton,
// or a tuple of the wrong arity (a state of another composition, a
// truncated domain tuple). Next, VisitNext and Enabled all answer
// "no step" for those.
func (c *Composite) tuple(s State) *TupleState {
	ts, ok := s.(*TupleState)
	if !ok || len(ts.parts) != len(c.comps) {
		return nil
	}
	return ts
}

// Next implements Automaton: all components sharing the action step
// simultaneously; others are unchanged. It is VisitNext collected.
func (c *Composite) Next(s State, a Action) []State {
	var out []State
	c.VisitNext(s, a, func(nxt State) bool {
		out = append(out, nxt)
		return true
	})
	return out
}

// Enabled implements Automaton. By Corollary 3 of the paper, a
// locally-controlled action of component i is enabled in the
// composition iff it is enabled in component i (all other components
// see it as an input, which is always enabled).
func (c *Composite) Enabled(s State) []Action {
	ts := c.tuple(s)
	if ts == nil {
		return nil
	}
	// Gather the components' lists first so the result is allocated
	// once at its final size; the array keeps the gathering on the
	// stack for compositions of ordinary width.
	var stack [enabledStack][]Action
	per, n := stack[:0], 0
	for i, part := range ts.parts {
		en := c.compEnabled(i, part)
		per = append(per, en)
		n += len(en)
	}
	if n == 0 {
		return nil
	}
	out := make([]Action, 0, n)
	for _, en := range per {
		out = append(out, en...)
	}
	return out
}

// enabledStack is how many components' enabled lists Enabled gathers
// without a heap allocation (the closed level-3 arbiter on a seven-user
// tree is eight components over a composition of seven).
const enabledStack = 16

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
