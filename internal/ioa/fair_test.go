package ioa

import (
	"testing"
)

// fig22 rebuilds the Figure 2.2 system inline (see package figures for
// the shared constructors; ioa's own tests stay dependency-free).
func fig22(t *testing.T) (*Composite, Automaton) {
	t.Helper()
	sigA := MustSignature([]Action{"α"}, []Action{"β"}, nil)
	a := MustTable("A", sigA,
		[]State{KeyState("p0")},
		[]Step{
			{From: KeyState("p0"), Act: "α", To: KeyState("p1")},
			{From: KeyState("p1"), Act: "α", To: KeyState("p0")},
			{From: KeyState("p1"), Act: "β", To: KeyState("p1")},
		},
		[]Class{{Name: "A", Actions: NewSet("β")}},
	)
	sigB := MustSignature([]Action{"α"}, []Action{"γ"}, nil)
	b := MustTable("B", sigB,
		[]State{KeyState("q0")},
		[]Step{
			{From: KeyState("q0"), Act: "α", To: KeyState("q1")},
			{From: KeyState("q1"), Act: "α", To: KeyState("q0")},
			{From: KeyState("q0"), Act: "γ", To: KeyState("q0")},
		},
		[]Class{{Name: "B", Actions: NewSet("γ")}},
	)
	c := MustCompose("F22", a, b)
	merged := &overrideParts{Automaton: c, parts: []Class{{Name: "m", Actions: NewSet("β", "γ")}}}
	return c, merged
}

type overrideParts struct {
	Automaton
	parts []Class
}

func (o *overrideParts) Parts() []Class { return o.parts }

// driveAlpha runs k α-steps of the Figure 2.2 system.
func driveAlpha(t *testing.T, a Automaton, k int) *Execution {
	t.Helper()
	x := NewExecution(a, a.Start()[0])
	for i := 0; i < k; i++ {
		if err := x.Extend("α", 0); err != nil {
			t.Fatal(err)
		}
	}
	return x
}

// TestFigure22PartitionMatters reproduces the argument of Figure 2.2:
// the all-α execution keeps each component's class disabled at
// alternating states, so with the per-component partition the
// execution passes a two-step fairness window; with the merged
// partition some locally-controlled action is enabled at every state
// and the class never fires — the execution cannot be fair.
func TestFigure22PartitionMatters(t *testing.T) {
	split, merged := fig22(t)

	// With per-component classes, each class is disabled at every
	// other state, so the fairness-window check passes with window 2.
	xs := driveAlpha(t, split, 20)
	if err := CheckFairWindow(xs, 2); err != nil {
		t.Errorf("split partition: all-α run should be fair-sustainable: %v", err)
	}

	// With the merged class, the window check must fail: the merged
	// class is enabled at every state and never fires.
	xm := driveAlpha(t, merged, 20)
	if err := CheckFairWindow(xm, 2); err == nil {
		t.Error("merged partition: all-α run must violate the fairness window")
	}
}

func TestIsFairFinite(t *testing.T) {
	// A one-shot automaton: out fires once, then nothing is enabled.
	sig := MustSignature(nil, []Action{"out"}, nil)
	a := MustTable("once", sig,
		[]State{KeyState("0")},
		[]Step{{From: KeyState("0"), Act: "out", To: KeyState("1")}},
		[]Class{{Name: "c", Actions: NewSet("out")}},
	)
	x := NewExecution(a, a.Start()[0])
	if IsFairFinite(x) {
		t.Error("initial state enables out; the empty execution is not fair")
	}
	if err := x.Extend("out", 0); err != nil {
		t.Fatal(err)
	}
	if !IsFairFinite(x) {
		t.Error("after out, nothing is enabled; execution is fair")
	}
}

// TestLemma18Extend: any finite execution extends to a fair one using
// the round-robin construction of Lemma 18's proof.
func TestLemma18Extend(t *testing.T) {
	// Automaton with two classes: "work" (fires 3 times then
	// disables) and "tick" (always enabled). The extension cannot
	// terminate (tick never disables) but must stay fair-windowed.
	d := NewDef("L18")
	d.Start(counter(3))
	d.Output("work", "w",
		func(s State) bool { return s.(counter) > 0 },
		func(s State) State { return s.(counter) - 1 })
	d.Output("tick", "t",
		func(State) bool { return true },
		func(s State) State { return s })
	a := d.MustBuild()
	x := NewExecution(a, a.Start()[0])
	fair := Lemma18Extend(x, 40)
	if fair {
		t.Error("system never quiesces; extension cannot be finite-fair")
	}
	if x.Len() != 40 {
		t.Fatalf("extension ran %d steps, want 40", x.Len())
	}
	// But the extension is fair in the window sense: work fires until
	// disabled, tick fires regularly.
	if err := CheckFairWindow(x, 2*len(a.Parts())); err != nil {
		t.Errorf("Lemma 18 extension violates fairness window: %v", err)
	}
	// And a quiescing automaton reaches a finite fair execution.
	d2 := NewDef("L18b")
	d2.Start(counter(3))
	d2.Output("work", "w",
		func(s State) bool { return s.(counter) > 0 },
		func(s State) State { return s.(counter) - 1 })
	b := d2.MustBuild()
	y := NewExecution(b, b.Start()[0])
	if !Lemma18Extend(y, 40) {
		t.Error("quiescing automaton must reach a finite fair execution")
	}
	if y.Len() != 3 {
		t.Errorf("expected exactly 3 work steps, got %d", y.Len())
	}
}

func TestEnabledClassesAndEnabledIn(t *testing.T) {
	split, _ := fig22(t)
	s := split.Start()[0]
	// In the start state (p0,q0): β disabled (A in p0), γ enabled.
	classes := EnabledClasses(split, s)
	if len(classes) != 1 {
		t.Fatalf("EnabledClasses = %v, want one", classes)
	}
	c := split.Parts()[classes[0]]
	if !c.Actions.Has("γ") {
		t.Errorf("wrong class enabled: %v", c)
	}
	acts := EnabledIn(split, s, c)
	if len(acts) != 1 || acts[0] != "γ" {
		t.Errorf("EnabledIn = %v", acts)
	}
	if ClassEnabled(split, s, split.Parts()[1-classes[0]]) {
		t.Error("β's class must be disabled at start")
	}
}
