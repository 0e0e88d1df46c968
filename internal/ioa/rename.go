package ioa

import (
	"fmt"
	"sort"
)

// A Mapping is an injective action mapping (§2.1.3). It is applicable
// to an object whose actions are all in its domain; actions not listed
// map to themselves (the identity extension is still required to be
// injective over the object's actions).
type Mapping struct {
	fwd map[Action]Action
	bwd map[Action]Action
}

// NewMapping builds an action mapping from explicit pairs. It returns
// an error if the mapping is not injective.
func NewMapping(pairs map[Action]Action) (*Mapping, error) {
	m := &Mapping{fwd: make(map[Action]Action, len(pairs)), bwd: make(map[Action]Action, len(pairs))}
	// Sorted so an injectivity failure names the same witness pair on
	// every run.
	for _, from := range sortedDomain(pairs) {
		to := pairs[from]
		if prev, dup := m.bwd[to]; dup && prev != from {
			return nil, fmt.Errorf("ioa: mapping not injective: %q and %q both map to %q", prev, from, to)
		}
		m.fwd[from] = to
		m.bwd[to] = from
	}
	return m, nil
}

// sortedDomain returns the keys of an action map in lexicographic
// order, for deterministic iteration.
func sortedDomain(pairs map[Action]Action) []Action {
	keys := make([]Action, 0, len(pairs))
	for from := range pairs {
		keys = append(keys, from)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// MustMapping is NewMapping but panics on error.
func MustMapping(pairs map[Action]Action) *Mapping {
	m, err := NewMapping(pairs)
	if err != nil {
		panic(err)
	}
	return m
}

// Apply maps a forward; unlisted actions map to themselves.
func (m *Mapping) Apply(a Action) Action {
	if to, ok := m.fwd[a]; ok {
		return to
	}
	return a
}

// Invert maps a backward; unlisted actions map to themselves.
func (m *Mapping) Invert(a Action) Action {
	if from, ok := m.bwd[a]; ok {
		return from
	}
	return a
}

// ApplySeq maps an action sequence forward.
func (m *Mapping) ApplySeq(seq []Action) []Action {
	out := make([]Action, len(seq))
	for i, a := range seq {
		out[i] = m.Apply(a)
	}
	return out
}

// applicable verifies the identity-extended mapping is injective over
// the given action set: an explicitly mapped target must not collide
// with an unmapped action that maps to itself.
func (m *Mapping) applicable(acts Set) error {
	seen := make(map[Action]Action, len(acts))
	// Sorted so a violation names the same witness pair on every run.
	for _, a := range acts.Sorted() {
		to := m.Apply(a)
		if prev, dup := seen[to]; dup {
			return fmt.Errorf("ioa: mapping not injective on object actions: %q and %q both map to %q", prev, a, to)
		}
		seen[to] = a
	}
	return nil
}

// applySet maps a whole action set forward.
func (m *Mapping) applySet(s Set) Set {
	out := make(Set, len(s))
	for a := range s {
		out.Add(m.Apply(a))
	}
	return out
}

// A Renamed is f(A), the automaton A with its actions renamed by an
// injective action mapping f (§2.1.3). States, start states, and the
// shape of the transition relation are unchanged.
type Renamed struct {
	inner Automaton
	m     *Mapping
	sig   Signature
	parts []Class
	inv   map[Action]Action // each action of sig to the inner action it steps
}

var _ Automaton = (*Renamed)(nil)

// Rename applies the action mapping m to automaton a.
func Rename(a Automaton, m *Mapping) (*Renamed, error) {
	if err := m.applicable(a.Sig().Acts()); err != nil {
		return nil, err
	}
	sig := Signature{
		in:       m.applySet(a.Sig().Inputs()),
		out:      m.applySet(a.Sig().Outputs()),
		internal: m.applySet(a.Sig().Internals()),
	}
	parts := make([]Class, 0, len(a.Parts()))
	for _, c := range a.Parts() {
		parts = append(parts, Class{Name: c.Name, Actions: m.applySet(c.Actions)})
	}
	inv := make(map[Action]Action)
	for b := range sig.Acts() {
		inv[b] = m.Invert(b)
	}
	return &Renamed{inner: a, m: m, sig: sig, parts: parts, inv: inv}, nil
}

// MustRename is Rename but panics on error.
func MustRename(a Automaton, m *Mapping) *Renamed {
	r, err := Rename(a, m)
	if err != nil {
		panic(err)
	}
	return r
}

// Name implements Automaton.
func (r *Renamed) Name() string { return r.inner.Name() }

// Sig implements Automaton.
func (r *Renamed) Sig() Signature { return r.sig }

// Start implements Automaton.
func (r *Renamed) Start() []State { return r.inner.Start() }

// Next implements Automaton: actions outside the renamed signature
// have no steps; everything else steps the inner automaton, in sc too,
// through the inverse mapping.
func (r *Renamed) Next(sc *Scratch, s State, a Action, yield func(State) bool) bool {
	ia, ok := r.inv[a]
	if !ok {
		return true
	}
	return r.inner.Next(sc, s, ia, yield)
}

// Enabled implements Automaton.
func (r *Renamed) Enabled(s State) []Action {
	inner := r.inner.Enabled(s)
	out := make([]Action, len(inner))
	for i, a := range inner {
		out[i] = r.m.Apply(a)
	}
	return out
}

// Parts implements Automaton.
func (r *Renamed) Parts() []Class { return r.parts }

// Mapping returns the action mapping used by this renaming.
func (r *Renamed) Mapping() *Mapping { return r.m }

// ComposeMappings forms the composition of compatible action mappings
// (§2.1.3): the mapping whose domain is the union of the domains and
// which applies whichever mapping defines the action. The mappings
// must agree wherever their behavior overlaps and the result must be
// injective.
func ComposeMappings(ms ...*Mapping) (*Mapping, error) {
	pairs := make(map[Action]Action)
	for _, m := range ms {
		// Sorted so a conflict names the same witness pair on every run.
		for _, from := range sortedDomain(m.fwd) {
			to := m.fwd[from]
			if prev, dup := pairs[from]; dup && prev != to {
				return nil, fmt.Errorf("ioa: mappings conflict on %q (%q vs %q)", from, prev, to)
			}
			pairs[from] = to
		}
	}
	return NewMapping(pairs)
}

// ChainMappings forms g∘f as a single mapping over the domain of f
// (apply f, then g). Used for the paper's f₁(f₂(E₃)) renaming chain.
func ChainMappings(f, g *Mapping) (*Mapping, error) {
	pairs := make(map[Action]Action)
	for from := range f.fwd {
		pairs[from] = g.Apply(f.Apply(from))
	}
	// Actions moved only by g must be included too.
	for from := range g.fwd {
		if _, covered := pairs[from]; !covered {
			if _, movedByF := f.bwd[from]; !movedByF {
				pairs[from] = g.Apply(from)
			}
		}
	}
	return NewMapping(pairs)
}
