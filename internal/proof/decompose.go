package proof

import (
	"fmt"
	"strings"

	"repro/internal/ioa"
)

// Decomposition into primitive automata (§2.2.3). Lemma 22: a
// deterministic automaton is fairly equivalent to a composition of
// primitive automata, one per class of its partition, each enriched
// with a "dead" state entered when an input arrives that the original
// automaton could not perform. Lemma 24: every automaton is fairly
// equivalent to a deterministic automaton with one extra internal
// scheduler class E. Theorem 23 combines the two.

// deadKey is the reserved key of the dead state added by Lemma 22's
// construction.
const deadKey = "\x00dead"

// deadState is the dead state d of the Lemma 22 construction.
type deadState struct{}

func (deadState) Key() string { return deadKey }

// primitiveComponent is the automaton Aᵢ of Lemma 22: it shares A's
// states (plus d), owns exactly one class Cᵢ as its output actions,
// and treats every other action of A as input. Inputs not enabled in A
// lead to the dead state.
type primitiveComponent struct {
	inner ioa.Automaton
	class ioa.Class
	sig   ioa.Signature
	parts []ioa.Class
}

var _ ioa.Automaton = (*primitiveComponent)(nil)

// PrimitiveComponent builds the Lemma 22 component Aᵢ for the given
// class index of a's partition. The automaton a should be
// deterministic for the composition of components to be fairly
// equivalent to a (Lemma 22); the construction itself is defined for
// any automaton (and yields unfair equivalence in general).
func PrimitiveComponent(a ioa.Automaton, classIndex int) (ioa.Automaton, error) {
	parts := a.Parts()
	if classIndex < 0 || classIndex >= len(parts) {
		return nil, fmt.Errorf("proof: class index %d out of range for %s", classIndex, a.Name())
	}
	class := parts[classIndex]
	var out, in []ioa.Action
	for act := range class.Actions {
		out = append(out, act)
	}
	for act := range a.Sig().Acts() {
		if !class.Actions.Has(act) {
			in = append(in, act)
		}
	}
	sig, err := ioa.NewSignature(in, out, nil)
	if err != nil {
		return nil, err
	}
	return &primitiveComponent{
		inner: a,
		class: class,
		sig:   sig,
		parts: []ioa.Class{{Name: class.Name, Actions: class.Actions.Clone()}},
	}, nil
}

// Name implements Automaton.
func (p *primitiveComponent) Name() string {
	return p.inner.Name() + "[" + p.class.Name + "]"
}

// Sig implements Automaton.
func (p *primitiveComponent) Sig() ioa.Signature { return p.sig }

// Start implements Automaton.
func (p *primitiveComponent) Start() []ioa.State { return p.inner.Start() }

// Next implements Automaton: the inner automaton's steps, in sc too,
// and the dead state where an input has none.
func (p *primitiveComponent) Next(sc *ioa.Scratch, s ioa.State, a ioa.Action, yield func(ioa.State) bool) bool {
	if !p.sig.HasAction(a) {
		return true
	}
	if s.Key() == deadKey {
		return !p.sig.IsInput(a) || yield(s)
	}
	stepped := false
	if !p.inner.Next(sc, s, a, func(nxt ioa.State) bool {
		stepped = true
		return yield(nxt)
	}) {
		return false
	}
	return stepped || !p.sig.IsInput(a) || yield(deadState{})
}

// Enabled implements Automaton.
func (p *primitiveComponent) Enabled(s ioa.State) []ioa.Action {
	if s.Key() == deadKey {
		return nil
	}
	var out []ioa.Action
	for _, act := range p.inner.Enabled(s) {
		if p.class.Actions.Has(act) {
			out = append(out, act)
		}
	}
	return out
}

// Parts implements Automaton.
func (p *primitiveComponent) Parts() []ioa.Class { return p.parts }

// DecomposeDeterministic performs the Lemma 22 construction: it
// returns the primitive components A₁…A_n (one per class of part(a))
// and their composition with a's internal actions hidden, which is
// fairly equivalent to a when a is deterministic.
func DecomposeDeterministic(a ioa.Automaton) ([]ioa.Automaton, ioa.Automaton, error) {
	parts := a.Parts()
	if len(parts) == 0 {
		return nil, a, nil
	}
	comps := make([]ioa.Automaton, 0, len(parts))
	for i := range parts {
		c, err := PrimitiveComponent(a, i)
		if err != nil {
			return nil, nil, err
		}
		comps = append(comps, c)
	}
	composed, err := ioa.Compose(a.Name()+"-decomposed", comps...)
	if err != nil {
		return nil, nil, err
	}
	return comps, ioa.Hide(composed, a.Sig().Internals()), nil
}

// schedClass is the name of the extra scheduler class E of Lemma 24.
const schedClass = "E-scheduler"

// detState is a state of the determinized automaton B of Lemma 24:
// either a pre-start state (the original start state not yet chosen)
// or a pair (a, σ) of an A-state and a queue of pending actions.
type detState struct {
	pre   bool
	s     ioa.State // nil when pre
	queue []ioa.Action
	key   string
}

func newDetState(pre bool, s ioa.State, queue []ioa.Action) *detState {
	var b strings.Builder
	if pre {
		b.WriteString("pre|")
	} else {
		b.WriteString(s.Key())
		b.WriteString("|")
	}
	b.WriteString(ioa.TraceString(queue))
	return &detState{pre: pre, s: s, queue: append([]ioa.Action(nil), queue...), key: b.String()}
}

// Key implements State.
func (d *detState) Key() string { return d.key }

// determinized is the automaton B of Lemma 24, built lazily over the
// (possibly infinite) state space of queued actions. Scheduler actions
// are tagged by the target state key ("sched(t)"), which makes B
// deterministic while preserving all of A's nondeterministic choices
// — the tagging device of the lemma's proof.
type determinized struct {
	inner    ioa.Automaton
	sig      ioa.Signature
	parts    []ioa.Class
	schedSet ioa.Set
	// targets enumerates the states of A usable as sched targets.
	targets map[string]ioa.State
}

var _ ioa.Automaton = (*determinized)(nil)

// Determinize performs the Lemma 24 construction on a finite automaton
// whose states are supplied by the caller (for a Table, its States();
// in general, a bounded reachable set). The result is a deterministic
// automaton fairly equivalent to a, whose partition is part(a) plus a
// fresh internal scheduler class E.
func Determinize(a ioa.Automaton, states []ioa.State) (ioa.Automaton, error) {
	schedSet := make(ioa.Set, len(states))
	targets := make(map[string]ioa.State, len(states))
	for _, s := range states {
		schedSet.Add(ioa.Act("sched", s.Key()))
		targets[s.Key()] = s
	}
	inSig := a.Sig()
	internal := inSig.Internals().Union(schedSet)
	sig, err := ioa.NewSignature(inSig.Inputs().Sorted(), inSig.Outputs().Sorted(), internal.Sorted())
	if err != nil {
		return nil, err
	}
	parts := make([]ioa.Class, 0, len(a.Parts())+1)
	for _, c := range a.Parts() {
		parts = append(parts, c.Clone())
	}
	parts = append(parts, ioa.Class{Name: schedClass, Actions: schedSet})
	return &determinized{inner: a, sig: sig, parts: parts, schedSet: schedSet, targets: targets}, nil
}

// Name implements Automaton.
func (d *determinized) Name() string { return d.inner.Name() + "-det" }

// Sig implements Automaton.
func (d *determinized) Sig() ioa.Signature { return d.sig }

// Start implements Automaton: the single pre-start state (ŝ, ε).
func (d *determinized) Start() []ioa.State {
	return []ioa.State{newDetState(true, nil, nil)}
}

// run reports the A-states reachable from each origin by executing the
// queue σ.
func (d *determinized) run(origins []ioa.State, queue []ioa.Action) []ioa.State {
	cur := origins
	for _, act := range queue {
		var next []ioa.State
		seen := make(map[string]struct{})
		for _, s := range cur {
			for _, n := range ioa.Successors(d.inner, s, act) {
				if _, ok := seen[n.Key()]; !ok {
					seen[n.Key()] = struct{}{}
					next = append(next, n)
				}
			}
		}
		cur = next
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

// origins returns the A-states a queue executes from for a detState.
func (d *determinized) origins(s *detState) []ioa.State {
	if s.pre {
		return d.inner.Start()
	}
	return []ioa.State{s.s}
}

// Next implements Automaton. Every state is built on the heap.
func (d *determinized) Next(_ *ioa.Scratch, s ioa.State, a ioa.Action, yield func(ioa.State) bool) bool {
	ds, ok := s.(*detState)
	if !ok {
		return true
	}
	if d.schedSet.Has(a) {
		// sched(t): (a, σ) -> (t, ε) iff t reachable by executing σ.
		targetKey := a.Params()[0]
		target, ok := d.targets[targetKey]
		if !ok {
			return true
		}
		for _, end := range d.run(d.origins(ds), ds.queue) {
			if end.Key() == targetKey {
				return yield(newDetState(false, target, nil))
			}
		}
		return true
	}
	if d.sig.IsInput(a) {
		extended := append(append([]ioa.Action(nil), ds.queue...), a)
		return yield(newDetState(ds.pre, ds.s, extended))
	}
	if d.sig.IsLocal(a) {
		// Locally-controlled π′ of A: only enabled from non-pre states
		// and only if the extended queue is executable.
		if ds.pre {
			return true
		}
		extended := append(append([]ioa.Action(nil), ds.queue...), a)
		if len(d.run(d.origins(ds), extended)) == 0 {
			return true
		}
		return yield(newDetState(false, ds.s, extended))
	}
	return true
}

// Enabled implements Automaton.
func (d *determinized) Enabled(s ioa.State) []ioa.Action {
	ds, ok := s.(*detState)
	if !ok {
		return nil
	}
	var out []ioa.Action
	ends := d.run(d.origins(ds), ds.queue)
	for _, end := range ends {
		out = append(out, ioa.Act("sched", end.Key()))
	}
	if !ds.pre {
		for act := range d.inner.Sig().Local() {
			enabledAtSomeEnd := false
			for _, end := range ends {
				if len(ioa.Successors(d.inner, end, act)) > 0 {
					enabledAtSomeEnd = true
					break
				}
			}
			if enabledAtSomeEnd {
				out = append(out, act)
			}
		}
	}
	return out
}

// Parts implements Automaton.
func (d *determinized) Parts() []ioa.Class { return d.parts }

// Decompose performs the full Theorem 23 construction: determinize a
// (Lemma 24), then decompose the result into primitive automata plus a
// scheduler component (Lemma 22), hiding the internal and scheduler
// actions. The result is fairly equivalent to a; its components are
// returned alongside the composition.
func Decompose(a ioa.Automaton, states []ioa.State) ([]ioa.Automaton, ioa.Automaton, error) {
	det, err := Determinize(a, states)
	if err != nil {
		return nil, nil, err
	}
	return DecomposeDeterministic(det)
}
