package ioa

import (
	"testing"
)

// pingPong builds the Figure 2.1-style pair locally (the figures
// package depends on ioa, so the tests here rebuild the tiny system).
func pingPong(t *testing.T) (*Table, *Table, *Composite) {
	t.Helper()
	sigA := MustSignature([]Action{"β"}, []Action{"α"}, nil)
	a := MustTable("A", sigA,
		[]State{KeyState("a0")},
		[]Step{
			{From: KeyState("a0"), Act: "α", To: KeyState("a1")},
			{From: KeyState("a1"), Act: "β", To: KeyState("a0")},
		},
		[]Class{{Name: "A", Actions: NewSet("α")}},
	)
	sigB := MustSignature([]Action{"α"}, []Action{"β"}, nil)
	b := MustTable("B", sigB,
		[]State{KeyState("b0")},
		[]Step{
			{From: KeyState("b0"), Act: "α", To: KeyState("b1")},
			{From: KeyState("b1"), Act: "β", To: KeyState("b0")},
		},
		[]Class{{Name: "B", Actions: NewSet("β")}},
	)
	c, err := Compose("AB", a, b)
	if err != nil {
		t.Fatalf("Compose: %v", err)
	}
	return a, b, c
}

// TestFigure21Composition checks the composition example of Figure
// 2.1: all actions of A·B are outputs, the partition keeps α and β in
// separate classes, and executions alternate α and β.
func TestFigure21Composition(t *testing.T) {
	_, _, c := pingPong(t)
	if c.Sig().Inputs().Len() != 0 {
		t.Errorf("composition should have no inputs: %v", c.Sig())
	}
	if !c.Sig().IsOutput("α") || !c.Sig().IsOutput("β") {
		t.Error("α and β must be outputs of the composition")
	}
	if len(c.Parts()) != 2 {
		t.Errorf("partition should have 2 classes, got %d", len(c.Parts()))
	}
	// Drive the composition: only α enabled initially, then only β.
	s := c.Start()[0]
	x := NewExecution(c, s)
	for i := 0; i < 6; i++ {
		enabled := c.Enabled(x.Last())
		if len(enabled) != 1 {
			t.Fatalf("step %d: enabled = %v, want exactly one", i, enabled)
		}
		want := Action("α")
		if i%2 == 1 {
			want = "β"
		}
		if enabled[0] != want {
			t.Fatalf("step %d: enabled %v, want %v (outputs must alternate)", i, enabled[0], want)
		}
		if err := x.Extend(enabled[0], 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.Validate(true); err != nil {
		t.Fatalf("execution invalid: %v", err)
	}
}

// TestLemma1Projection: projections of an execution of a composition
// are executions of the components.
func TestLemma1Projection(t *testing.T) {
	a, b, c := pingPong(t)
	x := NewExecution(c, c.Start()[0])
	for _, act := range []Action{"α", "β", "α", "β"} {
		if err := x.Extend(act, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i, comp := range []Automaton{a, b} {
		proj, err := c.ProjectExecution(x, i)
		if err != nil {
			t.Fatalf("project %d: %v", i, err)
		}
		if err := proj.Validate(true); err != nil {
			t.Errorf("Lemma 1 violated for component %d: %v", i, err)
		}
		if proj.Auto != comp {
			t.Errorf("projection %d has wrong automaton", i)
		}
		// Both components share every action here, so projections keep
		// all steps.
		if proj.Len() != x.Len() {
			t.Errorf("projection %d lost steps: %d vs %d", i, proj.Len(), x.Len())
		}
	}
}

// TestLemma2Zip: executions of components with compatible schedules
// combine into an execution of the composition. We exercise it via a
// system where components do NOT share all actions.
func TestLemma2Zip(t *testing.T) {
	sigA := MustSignature(nil, []Action{"x"}, nil)
	a := MustTable("X", sigA,
		[]State{KeyState("0")},
		[]Step{{From: KeyState("0"), Act: "x", To: KeyState("0")}},
		[]Class{{Name: "x", Actions: NewSet("x")}},
	)
	sigB := MustSignature(nil, []Action{"y"}, nil)
	b := MustTable("Y", sigB,
		[]State{KeyState("0")},
		[]Step{{From: KeyState("0"), Act: "y", To: KeyState("0")}},
		[]Class{{Name: "y", Actions: NewSet("y")}},
	)
	c := MustCompose("XY", a, b)
	// Interleave x and y arbitrarily; both projections must validate
	// and the composite execution must exist step by step.
	x := NewExecution(c, c.Start()[0])
	for _, act := range []Action{"x", "x", "y", "x", "y"} {
		if err := x.Extend(act, 0); err != nil {
			t.Fatalf("composite cannot interleave: %v", err)
		}
	}
	for i := 0; i < 2; i++ {
		proj, err := c.ProjectExecution(x, i)
		if err != nil {
			t.Fatal(err)
		}
		if err := proj.Validate(true); err != nil {
			t.Errorf("projection %d invalid: %v", i, err)
		}
	}
	p0, _ := c.ProjectExecution(x, 0)
	p1, _ := c.ProjectExecution(x, 1)
	if p0.Len() != 3 || p1.Len() != 2 {
		t.Errorf("projection lengths %d,%d; want 3,2", p0.Len(), p1.Len())
	}
}

// TestCorollary3LocalControl: a locally-controlled action of one
// component is enabled in the composition exactly when enabled in that
// component, regardless of other components' states.
func TestCorollary3LocalControl(t *testing.T) {
	a, _, c := pingPong(t)
	s := c.Start()[0].(*TupleState)
	enabledComposite := NewSet(c.Enabled(s)...)
	enabledA := NewSet(a.Enabled(s.At(0))...)
	for act := range enabledA {
		if !enabledComposite.Has(act) {
			t.Errorf("action %v enabled in component but not composition", act)
		}
	}
	for _, act := range []Action{"α", "β"} {
		inComp := enabledComposite.Has(act)
		var inOwner bool
		if act == "α" {
			inOwner = enabledA.Has(act)
		} else {
			_, b, _ := pingPong(t)
			inOwner = NewSet(b.Enabled(s.At(1))...).Has(act)
		}
		if inComp != inOwner {
			t.Errorf("Corollary 3 violated for %v: composite=%t owner=%t", act, inComp, inOwner)
		}
	}
}

func TestComposeIncompatible(t *testing.T) {
	sig := MustSignature(nil, []Action{"x"}, nil)
	mk := func(name string) *Table {
		return MustTable(name, sig, []State{KeyState("0")},
			[]Step{{From: KeyState("0"), Act: "x", To: KeyState("0")}},
			[]Class{{Name: "c", Actions: NewSet("x")}})
	}
	if _, err := Compose("bad", mk("P"), mk("Q")); err == nil {
		t.Error("composing automata with shared outputs must fail")
	}
}

func TestCompositeStartCartesianProduct(t *testing.T) {
	sig := MustSignature(nil, []Action{"x"}, nil)
	a := MustTable("P", sig,
		[]State{KeyState("0"), KeyState("1")},
		[]Step{{From: KeyState("0"), Act: "x", To: KeyState("0")}},
		[]Class{{Name: "c", Actions: NewSet("x")}})
	sig2 := MustSignature(nil, []Action{"y"}, nil)
	b := MustTable("Q", sig2,
		[]State{KeyState("0"), KeyState("1"), KeyState("2")},
		[]Step{{From: KeyState("0"), Act: "y", To: KeyState("0")}},
		[]Class{{Name: "c", Actions: NewSet("y")}})
	c := MustCompose("PQ", a, b)
	if got := len(c.Start()); got != 6 {
		t.Errorf("start states = %d, want 2*3", got)
	}
}

func TestTupleStateKeyUnambiguous(t *testing.T) {
	// ("ab","c") and ("a","bc") must produce different keys.
	s1 := NewTupleState([]State{KeyState("ab"), KeyState("c")})
	s2 := NewTupleState([]State{KeyState("a"), KeyState("bc")})
	if s1.Key() == s2.Key() {
		t.Errorf("ambiguous composite keys: %q", s1.Key())
	}
}

func TestCompositeNextNondeterministicCross(t *testing.T) {
	// Two components sharing an input with nondeterministic effects:
	// the composite successors are the cross product.
	mk := func(name, class string, out Action) *Prog {
		d := NewDef(name)
		d.Start(KeyState("0"))
		d.InputND("go", func(s State) []State {
			return []State{KeyState("L"), KeyState("R")}
		})
		d.Output(out, class,
			func(State) bool { return false },
			func(s State) State { return s })
		return d.MustBuild()
	}
	p := mk("P", "p", "op")
	q := mk("Q", "q", "oq")
	d := NewDef("driver")
	d.Start(KeyState("d"))
	d.Output("go", "drv",
		func(State) bool { return true },
		func(s State) State { return s })
	drv := d.MustBuild()
	c := MustCompose("PQD", p, q, drv)
	next := Successors(c, c.Start()[0], "go")
	if len(next) != 4 {
		t.Fatalf("cross product size = %d, want 4", len(next))
	}
	seen := make(map[string]bool)
	for _, s := range next {
		seen[s.Key()] = true
	}
	if len(seen) != 4 {
		t.Errorf("duplicate successors: %v", seen)
	}
}
