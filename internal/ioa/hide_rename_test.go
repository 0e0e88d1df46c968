package ioa

import (
	"testing"
)

func hideTestAutomaton(t *testing.T) *Table {
	t.Helper()
	sig := MustSignature([]Action{"in"}, []Action{"mid", "out"}, []Action{"internal"})
	return MustTable("H", sig,
		[]State{KeyState("0")},
		[]Step{
			{From: KeyState("0"), Act: "mid", To: KeyState("1")},
			{From: KeyState("1"), Act: "out", To: KeyState("2")},
			{From: KeyState("2"), Act: "internal", To: KeyState("0")},
			{From: KeyState("0"), Act: "in", To: KeyState("0")},
		},
		[]Class{{Name: "c", Actions: NewSet("mid", "out", "internal")}},
	)
}

func TestHideMovesOutputsToInternal(t *testing.T) {
	a := hideTestAutomaton(t)
	h := Hide(a, NewSet("mid"))
	if h.Sig().IsOutput("mid") || !h.Sig().IsInternal("mid") {
		t.Errorf("mid not hidden: %v", h.Sig())
	}
	if !h.Sig().IsOutput("out") {
		t.Error("out must stay an output")
	}
	// Transitions and partition unchanged.
	if got := Successors(h, KeyState("0"), "mid"); len(got) != 1 || got[0].Key() != "1" {
		t.Errorf("hide changed transitions: %v", got)
	}
	if len(h.Parts()) != 1 {
		t.Errorf("hide changed partition: %+v", h.Parts())
	}
	if err := CheckPartition(h); err != nil {
		t.Errorf("partition invalid after hide: %v", err)
	}
}

func TestHideOutputsExcept(t *testing.T) {
	a := hideTestAutomaton(t)
	h := HideOutputsExcept(a, NewSet("out"))
	if h.Sig().IsOutput("mid") || !h.Sig().IsOutput("out") {
		t.Errorf("HideOutputsExcept wrong: %v", h.Sig())
	}
}

func TestHideInputGetsOwnClass(t *testing.T) {
	a := hideTestAutomaton(t)
	h := Hide(a, NewSet("in"))
	if !h.Sig().IsInternal("in") {
		t.Fatalf("in not internal: %v", h.Sig())
	}
	if err := CheckPartition(h); err != nil {
		t.Fatalf("partition must cover newly-local former input: %v", err)
	}
	// The former input is enabled from every state and must be
	// reported by Enabled.
	enabled := NewSet(h.Enabled(KeyState("0"))...)
	if !enabled.Has("in") {
		t.Error("hidden former input must be reported enabled")
	}
}

func TestUnwrap(t *testing.T) {
	a := hideTestAutomaton(t)
	h := Hide(a, NewSet("mid"))
	m := MustMapping(map[Action]Action{"out": "pub"})
	r := MustRename(h, m)
	if Unwrap(r) != Automaton(a) {
		t.Error("Unwrap must reach the base automaton through both wrappers")
	}
}

func TestMappingInjectivity(t *testing.T) {
	if _, err := NewMapping(map[Action]Action{"a": "x", "b": "x"}); err == nil {
		t.Error("non-injective mapping must be rejected")
	}
	// Identity-extension collision: "b" maps to itself, "a" maps onto "b".
	m := MustMapping(map[Action]Action{"a": "b"})
	if err := m.applicable(NewSet("a", "b")); err == nil {
		t.Error("identity-extension collision must be rejected")
	}
	if err := m.applicable(NewSet("a", "c")); err != nil {
		t.Errorf("applicable should pass: %v", err)
	}
}

func TestRenameAutomaton(t *testing.T) {
	a := hideTestAutomaton(t)
	m := MustMapping(map[Action]Action{"out": "publish", "in": "poke"})
	r, err := Rename(a, m)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Sig().IsOutput("publish") || r.Sig().HasAction("out") {
		t.Errorf("rename wrong: %v", r.Sig())
	}
	if !r.Sig().IsInput("poke") {
		t.Errorf("input rename wrong: %v", r.Sig())
	}
	// Lemma 15-style: executions correspond under the mapping.
	if got := Successors(r, KeyState("1"), "publish"); len(got) != 1 || got[0].Key() != "2" {
		t.Errorf("renamed transition broken: %v", got)
	}
	if got := Successors(r, KeyState("1"), "out"); got != nil {
		t.Errorf("old name must not fire: %v", got)
	}
	enabled := NewSet(r.Enabled(KeyState("1"))...)
	if !enabled.Has("publish") || enabled.Has("out") {
		t.Errorf("Enabled uses old names: %v", enabled)
	}
	// Partition renamed too.
	if !r.Parts()[0].Actions.Has("publish") {
		t.Errorf("class actions not renamed: %v", r.Parts()[0].Actions)
	}
}

// TestLemma16HideRenameCommute: Hide_f(Σ)(f(O)) = f(Hide_Σ(O)).
func TestLemma16HideRenameCommute(t *testing.T) {
	a := hideTestAutomaton(t)
	m := MustMapping(map[Action]Action{"mid": "m2", "out": "o2"})
	hideSet := NewSet("mid")

	lhs := Hide(MustRename(a, m), NewSet("m2"))
	rhs := MustRename(a, m) // rename first, then compare against rename-of-hidden
	_ = rhs
	rhs2, err := Rename(Hide(a, hideSet), m)
	if err != nil {
		t.Fatal(err)
	}
	if !lhs.Sig().Equal(rhs2.Sig()) {
		t.Errorf("Lemma 16 signatures differ:\n  %v\n  %v", lhs.Sig(), rhs2.Sig())
	}
	// Same transitions on a probe.
	l := Successors(lhs, KeyState("0"), "m2")
	r := Successors(rhs2, KeyState("0"), "m2")
	if len(l) != 1 || len(r) != 1 || l[0].Key() != r[0].Key() {
		t.Errorf("Lemma 16 transitions differ: %v vs %v", l, r)
	}
}

// TestLemma17RenameComposeCommute: (∏fᵢ)(∏Oᵢ) = ∏fᵢ(Oᵢ).
func TestLemma17RenameComposeCommute(t *testing.T) {
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
	f := MustMapping(map[Action]Action{"α": "ping", "β": "pong"})

	lhs, err := Rename(MustCompose("AB", a, b), f)
	if err != nil {
		t.Fatal(err)
	}
	rhs := MustCompose("AB2", MustRename(a, f), MustRename(b, f))
	if !lhs.Sig().Equal(rhs.Sig()) {
		t.Fatalf("Lemma 17 signatures differ:\n  %v\n  %v", lhs.Sig(), rhs.Sig())
	}
	// Drive both for a few steps and compare behaviors stepwise.
	xl := NewExecution(lhs, lhs.Start()[0])
	xr := NewExecution(rhs, rhs.Start()[0])
	for i := 0; i < 4; i++ {
		el, er := lhs.Enabled(xl.Last()), rhs.Enabled(xr.Last())
		if TraceString(el) != TraceString(er) {
			t.Fatalf("step %d enabled sets differ: %v vs %v", i, el, er)
		}
		if len(el) == 0 {
			break
		}
		if err := xl.Extend(el[0], 0); err != nil {
			t.Fatal(err)
		}
		if err := xr.Extend(er[0], 0); err != nil {
			t.Fatal(err)
		}
	}
}

func TestComposeMappings(t *testing.T) {
	f := MustMapping(map[Action]Action{"a": "x"})
	g := MustMapping(map[Action]Action{"b": "y"})
	fg, err := ComposeMappings(f, g)
	if err != nil {
		t.Fatal(err)
	}
	if fg.Apply("a") != "x" || fg.Apply("b") != "y" || fg.Apply("c") != "c" {
		t.Errorf("composed mapping wrong")
	}
	conflict := MustMapping(map[Action]Action{"a": "z"})
	if _, err := ComposeMappings(f, conflict); err == nil {
		t.Error("conflicting mappings must be rejected")
	}
}

func TestChainMappings(t *testing.T) {
	f := MustMapping(map[Action]Action{"raw": "mid"})
	g := MustMapping(map[Action]Action{"mid": "final", "other": "o2"})
	gf, err := ChainMappings(f, g)
	if err != nil {
		t.Fatal(err)
	}
	if gf.Apply("raw") != "final" {
		t.Errorf("chain: raw -> %v, want final", gf.Apply("raw"))
	}
	if gf.Apply("other") != "o2" {
		t.Errorf("chain: other -> %v, want o2", gf.Apply("other"))
	}
	// Inversion round-trips.
	if gf.Invert("final") != "raw" {
		t.Errorf("chain inversion: %v", gf.Invert("final"))
	}
}
