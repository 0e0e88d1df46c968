package ioa

import (
	"fmt"
	"sort"
)

// kind classifies an action within a definition.
type kind int

const (
	kindInput kind = iota + 1
	kindOutput
	kindInternal
)

// transition is the definition of one action's transition relation in
// precondition/effect style (the notation of Figure 3.1).
type transition struct {
	kind kind
	// next returns all successors of s via this action; empty means
	// the action is not enabled from s. For inputs, an empty result is
	// interpreted as "ignore the input" and replaced by a self-loop,
	// preserving input-enabledness.
	next func(State) []State
	// class names the fairness class for locally-controlled actions.
	class string
}

// A Def accumulates the definition of an automaton in the
// precondition/effect style of the paper's figures, then Builds an
// immutable Automaton. The zero value is not usable; create with NewDef.
type Def struct {
	name   string
	start  []State
	trans  map[Action]*transition
	order  []Action // definition order, for stable iteration
	errs   []error
	sealed bool
}

// NewDef starts the definition of an automaton with the given name.
func NewDef(name string) *Def {
	return &Def{name: name, trans: make(map[Action]*transition)}
}

// Start adds start states.
func (d *Def) Start(states ...State) *Def {
	d.start = append(d.start, states...)
	return d
}

// add registers one action definition.
func (d *Def) add(a Action, t *transition) {
	if _, dup := d.trans[a]; dup {
		d.errs = append(d.errs, fmt.Errorf("ioa: %s: duplicate definition of action %q", d.name, a))
		return
	}
	d.trans[a] = t
	d.order = append(d.order, a)
}

// Input defines an input action with a deterministic effect. The
// effect function must be total; return the argument unchanged to
// ignore the input in a given state.
func (d *Def) Input(a Action, eff func(State) State) *Def {
	d.add(a, &transition{kind: kindInput, next: func(s State) []State { return []State{eff(s)} }})
	return d
}

// InputND defines an input action with a nondeterministic effect. If
// next returns no successors for some state, a self-loop is supplied
// so the automaton remains input-enabled.
func (d *Def) InputND(a Action, next func(State) []State) *Def {
	d.add(a, &transition{kind: kindInput, next: next})
	return d
}

// Output defines an output action with a precondition and a
// deterministic effect, as in the paper's action tables.
func (d *Def) Output(a Action, class string, pre func(State) bool, eff func(State) State) *Def {
	d.add(a, &transition{kind: kindOutput, class: class, next: guarded(pre, eff)})
	return d
}

// OutputND defines an output action with an arbitrary transition
// function: empty result means "not enabled".
func (d *Def) OutputND(a Action, class string, next func(State) []State) *Def {
	d.add(a, &transition{kind: kindOutput, class: class, next: next})
	return d
}

// Internal defines an internal action with a precondition and a
// deterministic effect.
func (d *Def) Internal(a Action, class string, pre func(State) bool, eff func(State) State) *Def {
	d.add(a, &transition{kind: kindInternal, class: class, next: guarded(pre, eff)})
	return d
}

// InternalND defines an internal action with an arbitrary transition
// function: empty result means "not enabled".
func (d *Def) InternalND(a Action, class string, next func(State) []State) *Def {
	d.add(a, &transition{kind: kindInternal, class: class, next: next})
	return d
}

func guarded(pre func(State) bool, eff func(State) State) func(State) []State {
	return func(s State) []State {
		if !pre(s) {
			return nil
		}
		return []State{eff(s)}
	}
}

// Build finalizes the definition into an immutable Automaton. It
// returns an error if the definition is inconsistent (duplicate
// actions, empty start set, signature violations).
func (d *Def) Build() (*Prog, error) {
	if d.sealed {
		return nil, fmt.Errorf("ioa: %s: Build called twice", d.name)
	}
	d.sealed = true
	if len(d.errs) > 0 {
		return nil, d.errs[0]
	}
	if len(d.start) == 0 {
		return nil, fmt.Errorf("ioa: %s: no start states", d.name)
	}
	var in, out, internal []Action
	classActs := make(map[string]Set)
	var classOrder []string
	for _, a := range d.order {
		t := d.trans[a]
		switch t.kind {
		case kindInput:
			in = append(in, a)
		case kindOutput, kindInternal:
			if t.kind == kindOutput {
				out = append(out, a)
			} else {
				internal = append(internal, a)
			}
			if _, ok := classActs[t.class]; !ok {
				classActs[t.class] = make(Set)
				classOrder = append(classOrder, t.class)
			}
			classActs[t.class].Add(a)
		}
	}
	sig, err := NewSignature(in, out, internal)
	if err != nil {
		return nil, fmt.Errorf("ioa: %s: %w", d.name, err)
	}
	parts := make([]Class, 0, len(classOrder))
	for _, name := range classOrder {
		parts = append(parts, Class{Name: name, Actions: classActs[name]})
	}
	p := &Prog{
		name:  d.name,
		sig:   sig,
		start: append([]State(nil), d.start...),
		trans: d.trans,
		parts: parts,
	}
	// Precompute sorted local action list for Enabled.
	p.local = sig.Local().Sorted()
	return p, nil
}

// MustBuild is Build but panics on error; for statically correct
// definitions.
func (d *Def) MustBuild() *Prog {
	p, err := d.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// A Prog is an automaton defined in precondition/effect style via Def.
// It implements Automaton.
type Prog struct {
	name  string
	sig   Signature
	start []State
	trans map[Action]*transition
	parts []Class
	local []Action
}

var _ Automaton = (*Prog)(nil)

// Name implements Automaton.
func (p *Prog) Name() string { return p.name }

// Sig implements Automaton.
func (p *Prog) Sig() Signature { return p.sig }

// Start implements Automaton.
func (p *Prog) Start() []State { return append([]State(nil), p.start...) }

// Next implements Automaton. For input actions with no defined
// successor it yields a self-loop, keeping the automaton
// input-enabled (the convention of §3.1.2: unexpected inputs are
// "effectively ignored").
func (p *Prog) Next(_ *Scratch, s State, a Action, yield func(State) bool) bool {
	t, ok := p.trans[a]
	if !ok {
		return true
	}
	next := t.next(s)
	if len(next) == 0 && t.kind == kindInput {
		return yield(s)
	}
	for _, nxt := range next {
		if !yield(nxt) {
			return false
		}
	}
	return true
}

// Enabled implements Automaton.
func (p *Prog) Enabled(s State) []Action {
	var out []Action
	for _, a := range p.local {
		if len(p.trans[a].next(s)) > 0 {
			out = append(out, a)
		}
	}
	return out
}

// Parts implements Automaton.
func (p *Prog) Parts() []Class { return p.parts }

// Relabel returns a copy of p whose fairness partition is replaced by
// the given function's class names: every locally-controlled action π
// is placed in the class named classOf(π). This is used to refine a
// partition (e.g. one class per action for timed b-bounded analysis,
// §3.4) — any refinement of a valid partition is itself valid.
func (p *Prog) Relabel(classOf func(Action) string) *Prog {
	classActs := make(map[string]Set)
	var order []string
	for _, a := range p.local {
		name := classOf(a)
		if _, ok := classActs[name]; !ok {
			classActs[name] = make(Set)
			order = append(order, name)
		}
		classActs[name].Add(a)
	}
	sort.Strings(order)
	parts := make([]Class, 0, len(order))
	for _, name := range order {
		parts = append(parts, Class{Name: name, Actions: classActs[name]})
	}
	clone := *p
	clone.parts = parts
	return &clone
}
