package ioa

import (
	"testing"
)

func schedModule(t *testing.T, sig Signature, traces ...[]Action) *SchedModule {
	t.Helper()
	m, err := NewSchedModule(sig, traces)
	if err != nil {
		t.Fatalf("NewSchedModule: %v", err)
	}
	return m
}

func TestSchedModuleBasics(t *testing.T) {
	sig := MustSignature([]Action{"i"}, []Action{"o"}, []Action{"h"})
	m := schedModule(t, sig, nil, []Action{"i"}, []Action{"i", "o"})
	if m.Len() != 3 {
		t.Fatalf("Len = %d", m.Len())
	}
	if !m.Has(nil) || !m.Has([]Action{"i", "o"}) || m.Has([]Action{"o", "i"}) {
		t.Error("Has wrong")
	}
	if _, err := NewSchedModule(sig, [][]Action{{"zz"}}); err == nil {
		t.Error("schedule outside signature must be rejected")
	}
}

func TestSchedModuleExternal(t *testing.T) {
	sig := MustSignature([]Action{"i"}, []Action{"o"}, []Action{"h"})
	m := schedModule(t, sig, []Action{"i", "h", "o"}, []Action{"h"}, nil)
	e := m.External()
	if e.Sig().Internals().Len() != 0 {
		t.Error("External must drop internal actions from the signature")
	}
	if !e.Has([]Action{"i", "o"}) {
		t.Error("projection i h o -> i o missing")
	}
	if !e.Has(nil) {
		t.Error("projection of h is the empty behavior")
	}
	if e.Len() != 2 {
		t.Errorf("External.Len = %d, want 2 (h-trace collapses onto ε)", e.Len())
	}
}

func TestSchedModuleEqualSubset(t *testing.T) {
	sig := MustSignature(nil, []Action{"o"}, nil)
	a := schedModule(t, sig, nil, []Action{"o"})
	b := schedModule(t, sig, nil, []Action{"o"})
	c := schedModule(t, sig, nil)
	if !a.Equal(b) {
		t.Error("equal modules not Equal")
	}
	if a.Equal(c) || !c.SubsetOf(a) || a.SubsetOf(c) {
		t.Error("subset relations wrong")
	}
}

func TestSchedModuleRename(t *testing.T) {
	sig := MustSignature(nil, []Action{"o"}, nil)
	m := schedModule(t, sig, []Action{"o", "o"})
	f := MustMapping(map[Action]Action{"o": "p"})
	r, err := m.RenameModule(f)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Has([]Action{"p", "p"}) || r.Has([]Action{"o", "o"}) {
		t.Error("rename of schedules wrong")
	}
}

func TestSchedModuleHide(t *testing.T) {
	sig := MustSignature(nil, []Action{"o"}, nil)
	m := schedModule(t, sig, []Action{"o"})
	h := m.HideModule(NewSet("o"))
	if !h.Sig().IsInternal("o") {
		t.Error("hide must move o to internal")
	}
	if !h.Has([]Action{"o"}) {
		t.Error("hide must not change schedules")
	}
}

// TestComposeSchedModules checks the bounded composition and the
// Lemma 10 laws (commutativity) on a small example.
func TestComposeSchedModules(t *testing.T) {
	// S over {x}: prefix-closed {ε, x}; T over {y}: {ε, y}.
	sx := MustSignature(nil, []Action{"x"}, nil)
	sy := MustSignature(nil, []Action{"y"}, nil)
	s := schedModule(t, sx, nil, []Action{"x"})
	u := schedModule(t, sy, nil, []Action{"y"})
	st, err := ComposeSchedModules(2, s, u)
	if err != nil {
		t.Fatal(err)
	}
	wantMembers := [][]Action{nil, {"x"}, {"y"}, {"x", "y"}, {"y", "x"}}
	for _, w := range wantMembers {
		if !st.Has(w) {
			t.Errorf("composition missing %v", TraceString(w))
		}
	}
	if st.Has([]Action{"x", "x"}) {
		t.Error("composition must respect component bounds (no xx)")
	}
	ts, err := ComposeSchedModules(2, u, s)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Equal(ts) {
		t.Error("Lemma 10: composition must be commutative")
	}
}

// TestLemma9UbehOfComposition: Ubeh(∏Oᵢ) = ∏Ubeh(Oᵢ) on bounded
// enumerations: the external behavior of the ping-pong composition
// equals the composition of component behaviors.
func TestLemma9UbehOfComposition(t *testing.T) {
	a, b, c := pingPong(t)
	const depth = 4
	execsC := enumerate(t, c, depth)
	ubehC := execsC.Ubeh()

	execsA := enumerate(t, a, depth)
	execsB := enumerate(t, b, depth)
	composed, err := ComposeSchedModules(depth, execsA.Ubeh(), execsB.Ubeh())
	if err != nil {
		t.Fatal(err)
	}
	// Depth-bounded caveat: compare traces up to the common bound.
	for _, tr := range ubehC.Traces() {
		if !composed.Has(tr) {
			t.Errorf("Ubeh(A·B) trace %s missing from Ubeh(A)·Ubeh(B)", TraceString(tr))
		}
	}
	for _, tr := range composed.Traces() {
		if len(tr) > depth {
			continue
		}
		if !ubehC.Has(tr) {
			t.Errorf("Ubeh(A)·Ubeh(B) trace %s missing from Ubeh(A·B)", TraceString(tr))
		}
	}
}

// enumerate builds the bounded execution module of an automaton by
// depth-first enumeration (mirrors explore.Execs without the import
// cycle).
func enumerate(t *testing.T, a Automaton, depth int) *ExecModule {
	t.Helper()
	acts := a.Sig().Acts().Sorted()
	var all []*Execution
	var rec func(x *Execution)
	rec = func(x *Execution) {
		all = append(all, x.Clone())
		if x.Len() == depth {
			return
		}
		for _, act := range acts {
			for _, nxt := range Successors(a, x.Last(), act) {
				x.Append(act, nxt)
				rec(x)
				x.Acts = x.Acts[:len(x.Acts)-1]
				x.States = x.States[:len(x.States)-1]
			}
		}
	}
	for _, s := range a.Start() {
		rec(NewExecution(a, s))
	}
	return &ExecModule{Auto: a, Execs: all}
}

func TestExecModuleScheds(t *testing.T) {
	_, _, c := pingPong(t)
	m := enumerate(t, c, 3)
	scheds := m.Scheds()
	if !scheds.Has([]Action{"α", "β", "α"}) {
		t.Error("schedule αβα missing")
	}
	if scheds.Has([]Action{"β"}) {
		t.Error("β cannot fire first")
	}
}
