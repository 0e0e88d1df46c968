package ioa

import (
	"fmt"
	"slices"
	"testing"
)

// goer is a component whose output go(name) is always enabled and
// whose input "in" is ignored.
func goer(name string) *Prog {
	d := NewDef(name)
	d.Start(KeyState(name + "0"))
	d.Input("in", func(s State) State { return s })
	d.Output(Act("go", name), name,
		func(State) bool { return true },
		func(State) State { return KeyState(name + "1") })
	return d.MustBuild()
}

// TestMalformedNestedPart: a nested part that is not its composition's
// state — a non-tuple, or a tuple of the wrong arity — makes that
// component take no step and contribute to Enabled only what the
// wrappers over it add (a Hide's newly local inputs), while the other
// components step as before; from every entry point alike, with and
// without an input-hiding Hide in the chain, and without a panic.
// Induction domains hand automata such tuples.
func TestMalformedNestedPart(t *testing.T) {
	inner := MustCompose("inner", goer("a"), goer("b"))
	ren := MustMapping(map[Action]Action{Act("go", "b"): Act("go", "B"), "in": "IN"})
	for _, tc := range []struct {
		name  string
		chain Automaton
		want  []Action // Enabled at a malformed state
	}{
		{"rename", MustRename(inner, ren), []Action{Act("go", "c")}},
		{"rename over an input hide", MustRename(Hide(inner, NewSet("in")), ren), []Action{"IN", Act("go", "c")}},
	} {
		outer := MustCompose("outer", tc.chain, goer("c"))
		start := outer.Start()[0]
		if got, want := outer.Enabled(start), append([]Action{Act("go", "a"), Act("go", "B")}, tc.want...); !slices.Equal(got, want) {
			t.Fatalf("%s: Enabled at the start state = %v, want %v", tc.name, got, want)
		}
		for name, part := range map[string]State{
			"non-tuple": KeyState("junk"),
			"short":     NewTupleState([]State{KeyState("a0")}),
			"long":      NewTupleState([]State{KeyState("a0"), KeyState("b0"), KeyState("a0")}),
		} {
			s := NewTupleState([]State{part, KeyState("c0")})
			if got := outer.Enabled(s); !slices.Equal(got, tc.want) {
				t.Errorf("%s, %s part: Enabled = %v, want %v", tc.name, name, got, tc.want)
			}
			for _, act := range outer.Sig().Acts().Sorted() {
				// Only c, which alone owns go(c) and "in" (the chain's input
				// is renamed to IN), still steps.
				var want []string
				if c, ok := map[Action]string{Act("go", "c"): "c1", "in": "c0"}[act]; ok {
					want = []string{JoinKeys(part.Key(), c)}
				}
				var sc Scratch
				for entry, got := range map[string][]string{
					"Next":          keysOf(Successors(outer, s, act)),
					"Next borrowed": collect(func(y func(State) bool) { outer.Next(&sc, s, act, y) }),
				} {
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("%s, %s part: %s by %s = %q, want %q", tc.name, name, entry, act, got, want)
					}
				}
			}
		}
	}
}

func keysOf(states []State) []string {
	var out []string
	for _, s := range states {
		out = append(out, s.Key())
	}
	return out
}

func collect(walk func(func(State) bool)) []string {
	var out []string
	walk(func(s State) bool {
		out = append(out, s.Key())
		return true
	})
	return out
}
