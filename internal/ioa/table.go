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
	numbering
	// steps maps state key -> action number -> successor states.
	steps map[string][][]State
	// states maps key -> state, to recover State values.
	states map[string]State
	parts  []Class
	local  []int32 // the numbers of the locally-controlled actions
}

var _ Numbered = (*Table)(nil)

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
		name:      name,
		sig:       sig,
		start:     append([]State(nil), start...),
		numbering: newNumbering(sig.Acts()),
		steps:     make(map[string][][]State),
		states:    make(map[string]State),
		parts:     parts,
	}
	for _, a := range sig.Local().Sorted() {
		t.local = append(t.local, t.number(a))
	}
	record := func(s State) {
		if _, ok := t.states[s.Key()]; !ok {
			t.states[s.Key()] = s
			t.steps[s.Key()] = make([][]State, len(t.acts))
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
		row, i := t.steps[st.From.Key()], t.number(st.Act)
		row[i] = append(row[i], st.To)
	}
	// Complete inputs with self-loops.
	inputs := sig.Inputs().Sorted()
	for key, row := range t.steps {
		for _, in := range inputs {
			if i := t.number(in); len(row[i]) == 0 {
				row[i] = []State{t.states[key]}
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
func (t *Table) Next(sc *Scratch, s State, a Action, yield func(State) bool) bool {
	i, ok := t.index[a]
	return !ok || t.NextNum(sc, s, i, yield)
}

// NextNum implements Numbered.
func (t *Table) NextNum(_ *Scratch, s State, i int32, yield func(State) bool) bool {
	row, ok := t.steps[s.Key()]
	if !ok {
		if t.sig.IsInput(t.acts[i]) {
			return yield(s)
		}
		return true
	}
	for _, nxt := range row[i] {
		if !yield(nxt) {
			return false
		}
	}
	return true
}

// AppendEnabled implements Numbered: the local actions with a stored
// step, in increasing order.
func (t *Table) AppendEnabled(dst []int32, s State) []int32 {
	row := t.steps[s.Key()]
	for _, i := range t.local {
		if row != nil && len(row[i]) > 0 {
			dst = append(dst, i)
		}
	}
	return dst
}

// Enabled implements Automaton.
func (t *Table) Enabled(s State) []Action { return t.names(t.AppendEnabled(nil, s)) }

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
		for i, tos := range row {
			for _, to := range tos {
				out = append(out, Step{From: from, Act: t.acts[i], To: to})
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
