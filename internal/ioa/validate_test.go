package ioa

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/testseed"
)

func TestValidateCatchesMissingStart(t *testing.T) {
	// A hand-built automaton with no start states.
	bad := &Table{
		name:      "bad",
		sig:       MustSignature(nil, []Action{"x"}, nil),
		numbering: newNumbering(NewSet("x")),
		steps:     map[string][][]State{},
		parts:     []Class{{Name: "c", Actions: NewSet("x")}},
		local:     []int32{0},
	}
	if err := Validate(bad); err == nil {
		t.Error("empty start set must fail validation")
	}
}

func TestCheckInputEnabledFailure(t *testing.T) {
	// A custom automaton that claims input "in" but refuses it.
	a := brokenInput{}
	if err := CheckInputEnabled(a, a.Start()); err == nil {
		t.Error("missing input transition must be caught")
	}
	if err := Validate(a); err == nil {
		t.Error("Validate must catch the broken input")
	}
}

// brokenInput declares an input it never enables.
type brokenInput struct{}

func (brokenInput) Name() string           { return "broken" }
func (brokenInput) Sig() Signature         { return MustSignature([]Action{"in"}, nil, nil) }
func (brokenInput) Start() []State         { return []State{KeyState("s")} }
func (brokenInput) Enabled(State) []Action { return nil }
func (brokenInput) Parts() []Class         { return nil }

func (brokenInput) Next(*Scratch, State, Action, func(State) bool) bool { return true }

func TestSetFilter(t *testing.T) {
	s := NewSet("ab", "cd", "ae")
	got := s.Filter(func(a Action) bool { return strings.HasPrefix(string(a), "a") })
	if got.Len() != 2 || !got.Has("ab") || !got.Has("ae") {
		t.Errorf("Filter = %v", got)
	}
}

func TestSignatureStringStable(t *testing.T) {
	s := MustSignature([]Action{"b", "a"}, []Action{"c"}, nil)
	want := "(in={a, b}, out={c}, int={})"
	if got := s.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestMustPanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s must panic", name)
			}
		}()
		f()
	}
	assertPanics("MustSignature", func() {
		MustSignature([]Action{"x"}, []Action{"x"}, nil)
	})
	assertPanics("MustMapping", func() {
		MustMapping(map[Action]Action{"a": "z", "b": "z"})
	})
	assertPanics("MustCompose", func() {
		sig := MustSignature(nil, []Action{"x"}, nil)
		a := MustTable("P", sig, []State{KeyState("0")}, nil,
			[]Class{{Name: "c", Actions: NewSet("x")}})
		b := MustTable("Q", sig, []State{KeyState("0")}, nil,
			[]Class{{Name: "c", Actions: NewSet("x")}})
		MustCompose("bad", a, b)
	})
}

// Property: TupleState keys are injective over component key tuples.
func TestTupleStateKeyInjective(t *testing.T) {
	f := func(a1, b1, a2, b2 string) bool {
		s1 := NewTupleState([]State{KeyState(a1), KeyState(b1)})
		s2 := NewTupleState([]State{KeyState(a2), KeyState(b2)})
		equal := a1 == a2 && b1 == b2
		return (s1.Key() == s2.Key()) == equal
	}
	if err := quick.Check(f, testseed.Quick(t, 0)); err != nil {
		t.Error(err)
	}
}

func TestStepToDisabled(t *testing.T) {
	p := buildCounter(t)
	if _, ok := StepTo(p, counter(0), "emit", 0); ok {
		t.Error("StepTo must report disabled actions")
	}
	if s, ok := StepTo(p, counter(1), "emit", -3); !ok || s.Key() != "0" {
		t.Error("negative pick must be normalized")
	}
}

func TestClassClone(t *testing.T) {
	c := Class{Name: "c", Actions: NewSet("x")}
	d := c.Clone()
	d.Actions.Add("y")
	if c.Actions.Has("y") {
		t.Error("Clone must not share the action set")
	}
}
