package ioa

import (
	"fmt"
	"sort"
)

// A Table is an explicit finite automaton given by an enumerated
// transition table. It is convenient for the small examples of the
// paper's figures, for randomized property testing, and as the output
// of constructions such as the primitive decomposition of §2.2.3.
type Table struct {
	name  string
	sig   Signature
	start []State
	// steps maps state key -> action -> successor states.
	steps map[string]map[Action][]State
	// states maps key -> state, to recover State values.
	states map[string]State
	parts  []Class
	local  []Action
}

var _ Automaton = (*Table)(nil)

// A Step is one transition (s, a, s') of a table automaton.
type Step struct {
	From State
	Act  Action
	To   State
}

// NewTable builds a finite automaton from explicit components. The
// partition parts must cover exactly the locally-controlled actions of
// sig. Input-enabledness is completed automatically: any input action
// with no transition from some listed state gets a self-loop there.
func NewTable(name string, sig Signature, start []State, steps []Step, parts []Class) (*Table, error) {
	if len(start) == 0 {
		return nil, fmt.Errorf("ioa: table %s: no start states", name)
	}
	t := &Table{
		name:   name,
		sig:    sig,
		start:  append([]State(nil), start...),
		steps:  make(map[string]map[Action][]State),
		states: make(map[string]State),
		parts:  parts,
		local:  sig.Local().Sorted(),
	}
	record := func(s State) {
		if _, ok := t.states[s.Key()]; !ok {
			t.states[s.Key()] = s
			t.steps[s.Key()] = make(map[Action][]State)
		}
	}
	for _, s := range start {
		record(s)
	}
	for _, st := range steps {
		if !sig.HasAction(st.Act) {
			return nil, fmt.Errorf("ioa: table %s: step uses action %q outside the signature", name, st.Act)
		}
		record(st.From)
		record(st.To)
		t.steps[st.From.Key()][st.Act] = append(t.steps[st.From.Key()][st.Act], st.To)
	}
	// Complete inputs with self-loops.
	inputs := sig.Inputs().Sorted()
	for key := range t.steps {
		for _, in := range inputs {
			if len(t.steps[key][in]) == 0 {
				t.steps[key][in] = []State{t.states[key]}
			}
		}
	}
	if err := CheckPartition(t); err != nil {
		return nil, err
	}
	return t, nil
}

// MustTable is NewTable but panics on error.
func MustTable(name string, sig Signature, start []State, steps []Step, parts []Class) *Table {
	t, err := NewTable(name, sig, start, steps, parts)
	if err != nil {
		panic(err)
	}
	return t
}

// Name implements Automaton.
func (t *Table) Name() string { return t.name }

// Sig implements Automaton.
func (t *Table) Sig() Signature { return t.sig }

// Start implements Automaton.
func (t *Table) Start() []State { return append([]State(nil), t.start...) }

// Next implements Automaton by walking the stored successor row. States
// outside the table are treated as having only input self-loops (they
// are unreachable by construction, but this keeps the automaton total
// and input-enabled).
func (t *Table) Next(_ *Scratch, s State, a Action, yield func(State) bool) bool {
	row, ok := t.steps[s.Key()]
	if !ok {
		if t.sig.IsInput(a) {
			return yield(s)
		}
		return true
	}
	for _, nxt := range row[a] {
		if !yield(nxt) {
			return false
		}
	}
	return true
}

// Enabled implements Automaton.
func (t *Table) Enabled(s State) []Action {
	row, ok := t.steps[s.Key()]
	if !ok {
		return nil
	}
	var out []Action
	for _, a := range t.local {
		if len(row[a]) > 0 {
			out = append(out, a)
		}
	}
	return out
}

// Parts implements Automaton.
func (t *Table) Parts() []Class { return t.parts }

// States returns all states appearing in the table, sorted by key.
func (t *Table) States() []State {
	keys := make([]string, 0, len(t.states))
	for k := range t.states {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]State, 0, len(keys))
	for _, k := range keys {
		out = append(out, t.states[k])
	}
	return out
}

// Steps returns every explicit step of the table (excluding the
// synthesized input self-loops of states that declared the input
// elsewhere; self-loops added for completion are included since they
// are real steps of the automaton). Steps are sorted for determinism.
func (t *Table) Steps() []Step {
	var out []Step
	for key, row := range t.steps {
		from := t.states[key]
		for act, tos := range row {
			for _, to := range tos {
				out = append(out, Step{From: from, Act: act, To: to})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.From.Key() != b.From.Key() {
			return a.From.Key() < b.From.Key()
		}
		if a.Act != b.Act {
			return a.Act < b.Act
		}
		return a.To.Key() < b.To.Key()
	})
	return out
}
