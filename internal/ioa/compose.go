package ioa

import (
	"fmt"
	"sync"

	"repro/internal/obs"
)

// A TupleState is a state of a composition: one component state per
// component automaton, in component order (§2.1.1).
type TupleState struct {
	parts []State
	key   string
}

var _ State = (*TupleState)(nil)

// NewTupleState builds a tuple state from component states.
func NewTupleState(parts []State) *TupleState {
	keys := make([]string, len(parts))
	for i, p := range parts {
		keys[i] = p.Key()
	}
	return &TupleState{parts: append([]State(nil), parts...), key: JoinKeys(keys...)}
}

// Key implements State.
func (t *TupleState) Key() string { return t.key }

// At returns the i-th component state (the paper's a|Aᵢ projection on
// states).
func (t *TupleState) At(i int) State { return t.parts[i] }

// Len returns the number of components.
func (t *TupleState) Len() int { return len(t.parts) }

// newTupleStateOwned builds a tuple state taking ownership of parts
// (no defensive copy — callers must not retain the slice).
func newTupleStateOwned(parts []State) *TupleState {
	keys := make([]string, len(parts))
	for i, p := range parts {
		keys[i] = p.Key()
	}
	return &TupleState{parts: parts, key: JoinKeys(keys...)}
}

// with returns a copy of t with component i replaced by s.
func (t *TupleState) with(updates map[int]State) *TupleState {
	parts := append([]State(nil), t.parts...)
	for i, s := range updates {
		parts[i] = s
	}
	return newTupleStateOwned(parts)
}

// with1 returns a copy of t with only component i replaced — the
// single-owner fast path of composite steps.
func (t *TupleState) with1(i int, s State) *TupleState {
	parts := append([]State(nil), t.parts...)
	parts[i] = s
	return newTupleStateOwned(parts)
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
	// memo caches per-component transition and enabled-set results
	// (one cache per component). Sound because Automaton requires
	// Next/Enabled to be deterministic functions of their arguments;
	// safe for concurrent exploration because each cache is sharded
	// behind RW mutexes.
	memo []compMemo
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
	// locally-controlled actions, cached verbatim.
	enabled map[string][]Action
	// hasEnabled marks enabled-cache presence (the cached slice may
	// legitimately be nil).
	hasEnabled map[string]struct{}
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
	return &Composite{
		name: name, comps: comps, sig: sig, parts: parts, who: who, classOwner: owner,
		memo: make([]compMemo, len(comps)),
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

// compNext is comp[i].Next(s, a) through the memo layer.
func (c *Composite) compNext(i int, s State, a Action) []State {
	key := s.Key()
	h := memoHash(key)
	sh := &c.memo[i].shards[h%memoShardCount]
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

// compEnabled is comp[i].Enabled(s) through the memo layer. The
// component's result is cached verbatim (same actions, same order),
// so callers observe exactly the uncached behavior.
func (c *Composite) compEnabled(i int, s State) []Action {
	key := s.Key()
	h := memoHash(key)
	sh := &c.memo[i].shards[h%memoShardCount]
	sh.mu.RLock()
	if _, ok := sh.hasEnabled[key]; ok {
		out := sh.enabled[key]
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
		sh.hasEnabled = make(map[string]struct{})
	}
	sh.enabled[key] = out
	sh.hasEnabled[key] = struct{}{}
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

// Next implements Automaton: all components sharing the action step
// simultaneously; others are unchanged.
func (c *Composite) Next(s State, a Action) []State {
	ts, ok := s.(*TupleState)
	if !ok || ts.Len() != len(c.comps) {
		return nil
	}
	owners := c.who[a]
	if len(owners) == 0 {
		return nil
	}
	// Single-owner fast path: no cross product, no update maps. This
	// is the common case (every non-shared action) and the hot path
	// of exhaustive exploration.
	if len(owners) == 1 {
		i := owners[0]
		next := c.compNext(i, ts.At(i), a)
		if len(next) == 0 {
			return nil
		}
		out := make([]State, len(next))
		for k, nxt := range next {
			out[k] = ts.with1(i, nxt)
		}
		return out
	}
	// Per-owner successor lists; if any owner cannot step, the
	// composite cannot step.
	choices := make([][]State, len(owners))
	for k, i := range owners {
		next := c.compNext(i, ts.At(i), a)
		if len(next) == 0 {
			return nil
		}
		choices[k] = next
	}
	// Cross product of owner choices.
	results := []map[int]State{{}}
	for k, i := range owners {
		var expanded []map[int]State
		for _, partial := range results {
			for _, nxt := range choices[k] {
				m := make(map[int]State, len(partial)+1)
				for idx, st := range partial {
					m[idx] = st
				}
				m[i] = nxt
				expanded = append(expanded, m)
			}
		}
		results = expanded
	}
	out := make([]State, 0, len(results))
	for _, updates := range results {
		out = append(out, ts.with(updates))
	}
	return out
}

// Enabled implements Automaton. By Corollary 3 of the paper, a
// locally-controlled action of component i is enabled in the
// composition iff it is enabled in component i (all other components
// see it as an input, which is always enabled).
func (c *Composite) Enabled(s State) []Action {
	ts, ok := s.(*TupleState)
	if !ok {
		return nil
	}
	var out []Action
	for i := range c.comps {
		out = append(out, c.compEnabled(i, ts.At(i))...)
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
