package figures

import (
	"testing"

	"repro/internal/ioa"
)

func TestAllFiguresValidate(t *testing.T) {
	autos := map[string]ioa.Automaton{
		"Fig21A":    Fig21A(),
		"Fig21B":    Fig21B(),
		"Fig21":     Fig21(),
		"Fig22A":    Fig22A(),
		"Fig22B":    Fig22B(),
		"Fig22":     Fig22(),
		"Fig22M":    Fig22Merged(),
		"Fig23A":    Fig23A(),
		"Fig23B":    Fig23B(),
		"Fig23C":    Fig23C(),
		"Fig23D(3)": Fig23D(3),
		"Fig23D(0)": Fig23D(0),
	}
	for name, a := range autos {
		if err := ioa.Validate(a); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestFig22ExactlyOneLocalEnabled(t *testing.T) {
	c := Fig22()
	s := c.Start()[0]
	for i := 0; i < 6; i++ {
		if got := len(c.Enabled(s)); got != 1 {
			t.Fatalf("state %d: %d local actions enabled, want 1 (the figure's point)", i, got)
		}
		next := ioa.Successors(c, s, Alpha)
		if len(next) != 1 {
			t.Fatal("α must be deterministic here")
		}
		s = next[0]
	}
}

func TestFig23ANondeterministicAlpha(t *testing.T) {
	a := Fig23A()
	if got := len(ioa.Successors(a, ioa.KeyState("s0"), Alpha)); got != 2 {
		t.Errorf("α from s0 has %d successors, want 2", got)
	}
	// β only from s0.
	if got := ioa.Successors(a, ioa.KeyState("s1"), Beta); got != nil {
		t.Errorf("β enabled from s1: %v", got)
	}
}

func TestFig23DBoundedAlphaChain(t *testing.T) {
	d := Fig23D(3)
	s := d.Start()[0]
	for i := 0; i < 3; i++ {
		next := ioa.Successors(d, s, Alpha)
		if len(next) != 1 {
			t.Fatalf("α blocked after %d steps", i)
		}
		s = next[0]
	}
	if got := ioa.Successors(d, s, Alpha); got != nil {
		t.Error("α must be exhausted at d0")
	}
	if got := ioa.Successors(d, s, Beta); len(got) != 1 || got[0].Key() != "e" {
		t.Errorf("β from d0: %v", got)
	}
}
