package ioa

import (
	"reflect"
	"strconv"
	"testing"
)

// counter is a tiny test automaton state.
type counter int

func (c counter) Key() string { return strconv.Itoa(int(c)) }

// buildCounter defines an automaton with input "inc", output "emit"
// (enabled when the count is positive, decrementing), and internal
// "noop" (never enabled past zero).
func buildCounter(t *testing.T) *Prog {
	t.Helper()
	d := NewDef("counter")
	d.Start(counter(0))
	d.Input("inc", func(s State) State { return s.(counter) + 1 })
	d.Output("emit", "main",
		func(s State) bool { return s.(counter) > 0 },
		func(s State) State { return s.(counter) - 1 })
	d.Internal("noop", "main",
		func(s State) bool { return false },
		func(s State) State { return s })
	p, err := d.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func TestBuilderSignatureAndPartition(t *testing.T) {
	p := buildCounter(t)
	if !p.Sig().IsInput("inc") || !p.Sig().IsOutput("emit") || !p.Sig().IsInternal("noop") {
		t.Fatalf("signature wrong: %v", p.Sig())
	}
	if err := Validate(p); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(p.Parts()) != 1 || p.Parts()[0].Actions.Len() != 2 {
		t.Fatalf("partition wrong: %+v", p.Parts())
	}
}

func TestBuilderTransitions(t *testing.T) {
	p := buildCounter(t)
	s0 := p.Start()[0]
	s1 := Successors(p, s0, "inc")
	if len(s1) != 1 || s1[0].Key() != "1" {
		t.Fatalf("inc from 0: %v", s1)
	}
	if got := Successors(p, s0, "emit"); got != nil {
		t.Fatalf("emit enabled from 0: %v", got)
	}
	if got := Successors(p, s1[0], "emit"); len(got) != 1 || got[0].Key() != "0" {
		t.Fatalf("emit from 1: %v", got)
	}
	if got := Successors(p, s0, "bogus"); got != nil {
		t.Fatalf("unknown action produced steps: %v", got)
	}
}

func TestBuilderEnabled(t *testing.T) {
	p := buildCounter(t)
	if got := p.Enabled(counter(0)); got != nil {
		t.Fatalf("Enabled(0) = %v, want none", got)
	}
	if got := p.Enabled(counter(2)); !reflect.DeepEqual(got, []Action{"emit"}) {
		t.Fatalf("Enabled(2) = %v", got)
	}
}

func TestBuilderDuplicateAction(t *testing.T) {
	d := NewDef("dup")
	d.Start(counter(0))
	d.Input("x", func(s State) State { return s })
	d.Input("x", func(s State) State { return s })
	if _, err := d.Build(); err == nil {
		t.Error("want duplicate-action error")
	}
}

func TestBuilderNoStart(t *testing.T) {
	d := NewDef("nostart")
	d.Input("x", func(s State) State { return s })
	if _, err := d.Build(); err == nil {
		t.Error("want no-start-states error")
	}
}

func TestBuilderDoubleBuild(t *testing.T) {
	d := NewDef("twice")
	d.Start(counter(0))
	if _, err := d.Build(); err != nil {
		t.Fatalf("first Build: %v", err)
	}
	if _, err := d.Build(); err == nil {
		t.Error("second Build must fail")
	}
}

func TestInputSelfLoopDefault(t *testing.T) {
	// InputND returning nothing must behave as a self-loop.
	d := NewDef("selfloop")
	d.Start(counter(0))
	d.InputND("in", func(State) []State { return nil })
	p, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	got := Successors(p, counter(5), "in")
	if len(got) != 1 || got[0].Key() != "5" {
		t.Fatalf("input without effect must self-loop, got %v", got)
	}
	if err := CheckInputEnabled(p, []State{counter(0), counter(9)}); err != nil {
		t.Fatalf("input-enabledness: %v", err)
	}
}

func TestRelabelRefinesPartition(t *testing.T) {
	p := buildCounter(t)
	r := p.Relabel(func(a Action) string { return "cls-" + string(a) })
	if len(r.Parts()) != 2 {
		t.Fatalf("Relabel produced %d classes, want 2", len(r.Parts()))
	}
	if err := CheckPartition(r); err != nil {
		t.Fatalf("relabeled partition invalid: %v", err)
	}
	// The original automaton must be untouched.
	if len(p.Parts()) != 1 {
		t.Error("Relabel mutated the original partition")
	}
	// Transitions are shared and unchanged.
	if got := Successors(r, counter(1), "emit"); len(got) != 1 || got[0].Key() != "0" {
		t.Fatalf("relabeled transitions changed: %v", got)
	}
}

func TestOutputNDMultipleSuccessors(t *testing.T) {
	d := NewDef("nd")
	d.Start(counter(0))
	d.OutputND("fork", "main", func(s State) []State {
		return []State{s.(counter) + 1, s.(counter) + 2}
	})
	p, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	got := Successors(p, counter(0), "fork")
	if len(got) != 2 {
		t.Fatalf("want 2 successors, got %v", got)
	}
	if s, ok := StepTo(p, counter(0), "fork", 1); !ok || s.Key() != "2" {
		t.Errorf("StepTo pick=1 = %v", s)
	}
	if s, ok := StepTo(p, counter(0), "fork", 5); !ok || s.Key() != "2" {
		t.Errorf("StepTo pick wraps modulo successors, got %v", s)
	}
}

func TestIsDeterministicAndPrimitive(t *testing.T) {
	p := buildCounter(t)
	states := []State{counter(0), counter(1), counter(2)}
	if !IsDeterministic(p, states) {
		t.Error("counter should be deterministic")
	}
	if !IsPrimitive(p) {
		t.Error("counter should be primitive")
	}
	d := NewDef("nd2")
	d.Start(counter(0))
	d.OutputND("fork", "m", func(s State) []State {
		return []State{s.(counter) + 1, s.(counter) + 2}
	})
	nd := d.MustBuild()
	if IsDeterministic(nd, []State{counter(0)}) {
		t.Error("fork automaton should be nondeterministic")
	}
}

func TestTableAutomaton(t *testing.T) {
	sig := MustSignature([]Action{"in"}, []Action{"out"}, nil)
	tab, err := NewTable("tab", sig,
		[]State{KeyState("s")},
		[]Step{
			{From: KeyState("s"), Act: "out", To: KeyState("t")},
			{From: KeyState("t"), Act: "in", To: KeyState("s")},
		},
		[]Class{{Name: "c", Actions: NewSet("out")}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(tab); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Input completion: "in" self-loops at s (not declared there).
	if got := Successors(tab, KeyState("s"), "in"); len(got) != 1 || got[0].Key() != "s" {
		t.Fatalf("input completion failed: %v", got)
	}
	if got := tab.Enabled(KeyState("t")); len(got) != 0 {
		t.Fatalf("out enabled from t: %v", got)
	}
	if n := len(tab.States()); n != 2 {
		t.Fatalf("States() = %d, want 2", n)
	}
	if n := len(tab.Steps()); n != 3 { // out, declared in, completed in
		t.Fatalf("Steps() = %d, want 3", n)
	}
}

func TestTableRejectsUnknownAction(t *testing.T) {
	sig := MustSignature(nil, []Action{"out"}, nil)
	_, err := NewTable("bad", sig,
		[]State{KeyState("s")},
		[]Step{{From: KeyState("s"), Act: "mystery", To: KeyState("s")}},
		[]Class{{Name: "c", Actions: NewSet("out")}},
	)
	if err == nil {
		t.Error("want error for step outside the signature")
	}
}

func TestCheckPartitionErrors(t *testing.T) {
	sig := MustSignature(nil, []Action{"o1", "o2"}, nil)
	// Missing action o2.
	_, err := NewTable("gap", sig, []State{KeyState("s")},
		[]Step{{From: KeyState("s"), Act: "o1", To: KeyState("s")}},
		[]Class{{Name: "c", Actions: NewSet("o1")}},
	)
	if err == nil {
		t.Error("want error for partition not covering o2")
	}
	// Overlapping classes.
	_, err = NewTable("overlap", sig, []State{KeyState("s")},
		nil,
		[]Class{
			{Name: "c1", Actions: NewSet("o1", "o2")},
			{Name: "c2", Actions: NewSet("o2")},
		},
	)
	if err == nil {
		t.Error("want error for overlapping classes")
	}
}
