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
	"math"
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

// A Filter is a state predicate that declares which odometer digits
// it reads: positions into a Product's cardinality vector or a
// Tuple's part list. Nil Reads declares nothing (the predicate may
// read every digit and is evaluated at the leaves); a non-nil set
// promises that Pred's value is fixed once those digits are.
type Filter struct {
	Name  string
	Reads []int
	Pred  func(ioa.State) bool
}

// Pruner is the optional pruned-walk extension, implemented by the
// odometer domains (Product, Tuple). VisitWhere streams, in Visit
// order, exactly the states every filter accepts, each with its
// enumeration index in the unfiltered walk. A filter is evaluated once
// per prefix, at the shallowest prefix that fixes all its declared
// digits, on the prefix's zero-extension — the first leaf below it; a
// rejection skips the subtree and advances the index by its size.
//
// A declaration is checked, not trusted, in the one direction it could
// lose a state: the rejecting filter is re-evaluated at the subtree's
// opposite corner (every digit below the prefix at its maximum) and
// acceptance there is returned as an error. The other direction — a
// filter accepting the zero-extension of a subtree it rejects
// elsewhere — only lets extra states through, so consumers that need
// exactness re-apply their predicates at the visited states.
type Pruner interface {
	VisitWhere(ctx context.Context, filters []Filter, visit func(s ioa.State, index int64) error) error
}

// odometer is the one combinatorial generator: card gives the digit
// cardinalities (rightmost digit fastest) and build returns the
// digits→state function for one walk, which owns whatever scratch
// that function closes over.
type odometer struct {
	name  string
	card  []int
	build func() func(digits []int) ioa.State
}

func (o *odometer) Name() string { return o.name }

// Visit implements Domain: the zero-filter case of VisitWhere.
func (o *odometer) Visit(ctx context.Context, visit func(ioa.State) error) error {
	return o.VisitWhere(ctx, nil, func(s ioa.State, _ int64) error { return visit(s) })
}

// size is the product of the cardinalities, -1 when it overflows
// int64.
func (o *odometer) size() int64 {
	n := int64(1)
	for _, c := range o.card {
		if c == 0 {
			return 0
		}
	}
	for _, c := range o.card {
		if n > math.MaxInt64/int64(c) {
			return -1
		}
		n *= int64(c)
	}
	return n
}

// VisitWhere implements Pruner, and is the only digit-advance loop in
// the package. After digit i advances, digits[i+1:] are zero, so the
// one state built for the step is the zero-extension of every prefix
// longer than i: the filters of those depths are evaluated on it,
// shallowest first.
func (o *odometer) VisitWhere(ctx context.Context, filters []Filter, visit func(ioa.State, int64) error) error {
	n := len(o.card)
	total := o.size()
	if total == 0 {
		return nil // empty factor: empty product
	}
	// at[k] holds the filters decided by a prefix of k digits; sub[k]
	// is the number of leaves below such a prefix.
	var at [][]Filter
	var sub []int64
	var corner []int
	if len(filters) > 0 {
		if total < 0 {
			return fmt.Errorf("domain: %q has more than 2^63 states: a pruned walk cannot index it", o.name)
		}
		sub = make([]int64, n+1)
		sub[n] = 1
		for k := n - 1; k >= 0; k-- {
			sub[k] = sub[k+1] * int64(o.card[k])
		}
		at = make([][]Filter, n+1)
		for _, f := range filters {
			depth := 0
			if f.Reads == nil {
				depth = n
			}
			for _, r := range f.Reads {
				if r < 0 || r >= n {
					return fmt.Errorf("domain: %q: filter %q reads digit %d of %d", o.name, f.Name, r, n)
				}
				depth = max(depth, r+1)
			}
			at[depth] = append(at[depth], f)
		}
		corner = make([]int, n)
	}
	build := o.build()
	digits := make([]int, n)
	index := int64(0)
	lo := 0 // digits[lo:] are zero; prefixes of lo or more digits are undecided
	for it := 0; ; it++ {
		if it%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		s := build(digits)
		cut := -1
	decide:
		for k := lo; k < len(at); k++ {
			for _, f := range at[k] {
				if f.Pred(s) {
					continue
				}
				if k < n {
					copy(corner, digits)
					for j := k; j < n; j++ {
						corner[j] = o.card[j] - 1
					}
					if f.Pred(build(corner)) {
						return fmt.Errorf("domain: %q: filter %q declares reads %v but changes value below a %d-digit prefix (at %q)",
							o.name, f.Name, f.Reads, k, s.Key())
					}
				}
				cut = k
				break decide
			}
		}
		i := n - 1
		if cut < 0 {
			if err := visit(s, index); err != nil {
				return err
			}
			index++
		} else {
			index += sub[cut]
			i = cut - 1
		}
		for i >= 0 {
			digits[i]++
			if digits[i] < o.card[i] {
				break
			}
			digits[i] = 0
			i--
		}
		if i < 0 {
			return nil
		}
		lo = i + 1
	}
}

// Tuple enumerates the cross product of per-component state lists as
// ioa.TupleState values, rightmost component fastest (odometer
// order) — the combinatorial domain for composite automata. Only the
// part lists are held; the product streams. Membership is
// componentwise key membership. A Tuple is a product whose digits
// index the part lists, so a Filter's Reads are part positions.
func Tuple(name string, parts [][]ioa.State) Domain {
	card := make([]int, len(parts))
	for i, part := range parts {
		card[i] = len(part)
	}
	build := func() func([]int) ioa.State {
		cur := make([]ioa.State, len(parts))
		return func(digits []int) ioa.State {
			for i, d := range digits {
				cur[i] = parts[i][d]
			}
			return ioa.NewTupleState(cur)
		}
	}
	return &tupleDomain{odometer: odometer{name: name, card: card, build: build}, parts: parts}
}

type tupleDomain struct {
	odometer
	parts [][]ioa.State

	once sync.Once
	keys []map[string]struct{}
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
	return &productDomain{
		odometer: odometer{name: name, card: card, build: func() func([]int) ioa.State { return build }},
		contains: contains,
	}, nil
}

type productDomain struct {
	odometer
	contains func(ioa.State) bool
}

// Contains implements Container.
func (d *productDomain) Contains(s ioa.State) bool { return d.contains(s) }

// Size returns the number of states a domain streams when that is
// known without enumeration (the product of a Product's or Tuple's
// cardinalities, a list's length, a union's sum), or -1 when it is
// not — including when the count overflows int64.
func Size(d Domain) int64 {
	switch d := d.(type) {
	case *productDomain:
		return d.size()
	case *tupleDomain:
		return d.size()
	case *explicitDomain:
		return int64(len(d.states))
	case *containedUnion:
		return Size(d.unionDomain)
	case *unionDomain:
		n := int64(0)
		for _, p := range d.parts {
			pn := Size(p)
			if pn < 0 || n > math.MaxInt64-pn {
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
