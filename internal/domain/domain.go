// Package domain enumerates state spaces: finite, deterministically
// ordered sets of ioa.State values that other subsystems quantify
// over. A Domain streams its states through a visitor, so candidate
// spaces far larger than any reachable set (the full K^n corruption
// space of a ring, the TypeOK product of a mutex protocol) are walked
// in O(1) resident memory — only the generators' cursors live between
// visits, never the state list.
//
// Two consumers drive the design. The stabilize certifier's corruption
// envelopes (formerly private Envelope generators, lifted here so
// other packages reuse them without import cycles) materialize small
// domains via Collect. The induct certification engine quantifies its
// inductive-step check over a domain and never materializes it; for
// soundness it additionally needs membership — domains that can answer
// "is this state one of mine?" implement the optional Container
// extension, which induct uses to verify that no transition escapes
// the candidate space.
package domain

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/store"
)

// A Domain is an enumerable set of states.
type Domain interface {
	// Name labels the domain in certificates and reports.
	Name() string
	// Visit streams every state in a deterministic order, stopping
	// early when visit returns an error (which Visit returns).
	Visit(ctx context.Context, visit func(ioa.State) error) error
}

// Container is the optional membership extension. Generators whose
// membership is decidable without enumeration (products, explicit
// lists, memoized reach sets) implement it; consumers that need
// domain-closure checks (induct) type-assert for it.
type Container interface {
	Contains(ioa.State) bool
}

// ctxStride is how many visited states pass between context polls in
// the combinatorial generators.
const ctxStride = 1024

// Collect materializes a domain as a slice, in visit order.
func Collect(ctx context.Context, d Domain) ([]ioa.State, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var out []ioa.State
	err := d.Visit(ctx, func(s ioa.State) error {
		out = append(out, s)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Explicit wraps a fixed state list. Membership is by canonical key.
func Explicit(name string, states []ioa.State) Domain {
	return &explicitDomain{name: name, states: states}
}

type explicitDomain struct {
	name   string
	states []ioa.State

	once sync.Once
	keys map[string]struct{}
}

func (d *explicitDomain) Name() string { return d.name }

func (d *explicitDomain) Visit(ctx context.Context, visit func(ioa.State) error) error {
	for i, s := range d.states {
		if i%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := visit(s); err != nil {
			return err
		}
	}
	return nil
}

// Contains implements Container.
func (d *explicitDomain) Contains(s ioa.State) bool {
	d.once.Do(func() {
		d.keys = make(map[string]struct{}, len(d.states))
		for _, st := range d.states {
			d.keys[st.Key()] = struct{}{}
		}
	})
	_, ok := d.keys[s.Key()]
	return ok
}

// Reachable derives the domain from the reachable states of
// corrupted — typically an automaton wrapped in fault transformers
// (faults.CrashRestart, faults.Clamp, or a composition of wrapped
// components) — deduplicated in reach order. project maps each
// reached state into the target state space (nil is the identity; a
// nil projected state is skipped). The reach set is computed once, on
// first use, and retained: a Reachable domain is inherently
// O(reachable) memory, and the retained store answers Contains.
func Reachable(name string, corrupted ioa.Automaton, project func(ioa.State) ioa.State, opts explore.Options) Domain {
	return &reachDomain{name: name, corrupted: corrupted, project: project, opts: opts}
}

type reachDomain struct {
	name      string
	corrupted ioa.Automaton
	project   func(ioa.State) ioa.State
	opts      explore.Options

	once   sync.Once
	states []ioa.State
	seen   *store.Store
	err    error
}

func (d *reachDomain) Name() string { return d.name }

func (d *reachDomain) materialize(ctx context.Context) error {
	d.once.Do(func() {
		states, err := explore.New(d.opts).Reach(ctx, d.corrupted)
		if err != nil {
			d.err = fmt.Errorf("domain: %q: %w", d.name, err)
			return
		}
		d.seen = store.New(store.Options{})
		d.states = make([]ioa.State, 0, len(states))
		for _, s := range states {
			if d.project != nil {
				s = d.project(s)
				if s == nil {
					continue
				}
			}
			if _, fresh := d.seen.Intern(s); fresh {
				d.states = append(d.states, s)
			}
		}
		if err := d.seen.Err(); err != nil {
			d.err = fmt.Errorf("domain: %q: %w", d.name, err)
		}
	})
	return d.err
}

func (d *reachDomain) Visit(ctx context.Context, visit func(ioa.State) error) error {
	if err := d.materialize(ctx); err != nil {
		return err
	}
	for i, s := range d.states {
		if i%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := visit(s); err != nil {
			return err
		}
	}
	return nil
}

// Contains implements Container. The reach set materializes on first
// use (with a background context) if Visit has not run yet.
func (d *reachDomain) Contains(s ioa.State) bool {
	if d.materialize(context.Background()) != nil {
		return false
	}
	_, ok := d.seen.Has(s)
	return ok
}

// Union concatenates domains under one name; overlap yields repeated
// visits (consumers that need distinctness deduplicate). The union
// implements Container exactly when every part does.
func Union(name string, parts ...Domain) Domain {
	u := &unionDomain{name: name, parts: parts}
	for _, p := range parts {
		if _, ok := p.(Container); !ok {
			return u
		}
	}
	return &containedUnion{unionDomain: u}
}

type unionDomain struct {
	name  string
	parts []Domain
}

func (d *unionDomain) Name() string { return d.name }

func (d *unionDomain) Visit(ctx context.Context, visit func(ioa.State) error) error {
	for _, p := range d.parts {
		if err := p.Visit(ctx, visit); err != nil {
			return err
		}
	}
	return nil
}

type containedUnion struct {
	*unionDomain
}

// Contains implements Container: membership in any part.
func (d *containedUnion) Contains(s ioa.State) bool {
	for _, p := range d.parts {
		if p.(Container).Contains(s) {
			return true
		}
	}
	return false
}

// Tuple enumerates the cross product of per-component state lists as
// ioa.TupleState values, rightmost component fastest (odometer
// order) — the combinatorial domain for composite automata. Only the
// part lists are held; the product streams. Membership is
// componentwise key membership.
func Tuple(name string, parts [][]ioa.State) Domain {
	return &tupleDomain{name: name, parts: parts}
}

type tupleDomain struct {
	name  string
	parts [][]ioa.State

	once sync.Once
	keys []map[string]struct{}
}

func (d *tupleDomain) Name() string { return d.name }

func (d *tupleDomain) Visit(ctx context.Context, visit func(ioa.State) error) error {
	for _, part := range d.parts {
		if len(part) == 0 {
			return nil // empty factor: empty product
		}
	}
	idx := make([]int, len(d.parts))
	cur := make([]ioa.State, len(d.parts))
	for i := range d.parts {
		cur[i] = d.parts[i][0]
	}
	for n := 0; ; n++ {
		if n%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := visit(ioa.NewTupleState(cur)); err != nil {
			return err
		}
		i := len(idx) - 1
		for i >= 0 {
			idx[i]++
			if idx[i] < len(d.parts[i]) {
				cur[i] = d.parts[i][idx[i]]
				break
			}
			idx[i] = 0
			cur[i] = d.parts[i][0]
			i--
		}
		if i < 0 {
			return nil
		}
	}
}

// Contains implements Container.
func (d *tupleDomain) Contains(s ioa.State) bool {
	ts, ok := s.(*ioa.TupleState)
	if !ok || ts.Len() != len(d.parts) {
		return false
	}
	d.once.Do(func() {
		d.keys = make([]map[string]struct{}, len(d.parts))
		for i, part := range d.parts {
			d.keys[i] = make(map[string]struct{}, len(part))
			for _, st := range part {
				d.keys[i][st.Key()] = struct{}{}
			}
		}
	})
	for i := range d.keys {
		if _, ok := d.keys[i][ts.At(i).Key()]; !ok {
			return false
		}
	}
	return true
}

// Product enumerates a combinatorial space of custom-shaped states:
// card gives the digit cardinalities of an odometer (rightmost digit
// fastest), and build maps each digit vector to a state. build must
// not retain its argument — the vector is reused between calls.
// contains decides membership (required: Product domains exist to
// bound induction, and induction is only sound over a domain that can
// recognize its own states).
func Product(name string, card []int, build func(digits []int) ioa.State, contains func(ioa.State) bool) (Domain, error) {
	if len(card) == 0 {
		return nil, fmt.Errorf("domain: product %q needs at least one digit", name)
	}
	for i, c := range card {
		if c < 1 {
			return nil, fmt.Errorf("domain: product %q digit %d has cardinality %d", name, i, c)
		}
	}
	if build == nil || contains == nil {
		return nil, fmt.Errorf("domain: product %q needs build and contains functions", name)
	}
	return &productDomain{name: name, card: card, build: build, contains: contains}, nil
}

type productDomain struct {
	name     string
	card     []int
	build    func([]int) ioa.State
	contains func(ioa.State) bool
}

func (d *productDomain) Name() string { return d.name }

func (d *productDomain) Visit(ctx context.Context, visit func(ioa.State) error) error {
	digits := make([]int, len(d.card))
	for n := 0; ; n++ {
		if n%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := visit(d.build(digits)); err != nil {
			return err
		}
		i := len(digits) - 1
		for i >= 0 {
			digits[i]++
			if digits[i] < d.card[i] {
				break
			}
			digits[i] = 0
			i--
		}
		if i < 0 {
			return nil
		}
	}
}

// Contains implements Container.
func (d *productDomain) Contains(s ioa.State) bool { return d.contains(s) }

// Size returns the number of states a Product or Tuple domain streams
// (the product of its cardinalities), or -1 for other domains.
func Size(d Domain) int64 {
	switch d := d.(type) {
	case *productDomain:
		n := int64(1)
		for _, c := range d.card {
			n *= int64(c)
		}
		return n
	case *tupleDomain:
		n := int64(1)
		for _, part := range d.parts {
			n *= int64(len(part))
		}
		return n
	case *explicitDomain:
		return int64(len(d.states))
	case *containedUnion:
		return Size(d.unionDomain)
	case *unionDomain:
		n := int64(0)
		for _, p := range d.parts {
			pn := Size(p)
			if pn < 0 {
				return -1
			}
			n += pn
		}
		return n
	}
	return -1
}

// CrashInner projects a faults.CrashState to the wrapped automaton's
// state, discarding the down flag — the state a crash leaves the
// process in. Non-crash states pass through.
func CrashInner(s ioa.State) ioa.State {
	if cs, ok := s.(*faults.CrashState); ok {
		return cs.Inner()
	}
	return s
}

// TupleMap lifts a per-component projection over composite states:
// the projection applies to every component of a TupleState (and to
// non-tuple states directly). Composing crash-wrapped components and
// projecting with TupleMap(CrashInner) turns the reachable states of
// the crashed system into valid states of the clean composition.
func TupleMap(f func(ioa.State) ioa.State) func(ioa.State) ioa.State {
	return func(s ioa.State) ioa.State {
		ts, ok := s.(*ioa.TupleState)
		if !ok {
			return f(s)
		}
		parts := make([]ioa.State, ts.Len())
		for i := 0; i < ts.Len(); i++ {
			parts[i] = f(ts.At(i))
		}
		return ioa.NewTupleState(parts)
	}
}
