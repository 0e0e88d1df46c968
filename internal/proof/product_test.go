package proof

import (
	"testing"

	"repro/internal/explore"
	"repro/internal/ioa"
)

// abstracted pairs a concrete 4-phase automaton with a 2-phase
// abstraction; ext signature equality requires the abstraction to keep
// the action but lose the intermediate states.
func liftPair(t *testing.T, suffix string) (conc, abs *ioa.Table, h *PossMapping) {
	t.Helper()
	tick, tock := ioa.Action("tick"+suffix), ioa.Action("tock"+suffix)
	sig := ioa.MustSignature(nil, []ioa.Action{tick, tock}, nil)
	s := func(k string) ioa.State { return ioa.KeyState(k) }
	// Concrete: 0 -tick-> 1 -tick-> 2 -tock-> 0 (two ticks per tock).
	// Abstract: a single state with self-loops for both actions —
	// every concrete state maps to it, and every concrete step has a
	// matching abstract step, so the mapping conditions hold.
	conc = ioa.MustTable("conc"+suffix, sig,
		[]ioa.State{s("0")},
		[]ioa.Step{
			{From: s("0"), Act: tick, To: s("1")},
			{From: s("1"), Act: tick, To: s("2")},
			{From: s("2"), Act: tock, To: s("0")},
		},
		[]ioa.Class{{Name: "c" + suffix, Actions: ioa.NewSet(tick, tock)}})
	abs = ioa.MustTable("abs"+suffix, sig,
		[]ioa.State{s("p")},
		[]ioa.Step{
			{From: s("p"), Act: tick, To: s("p")},
			{From: s("p"), Act: tock, To: s("p")},
		},
		[]ioa.Class{{Name: "c" + suffix, Actions: ioa.NewSet(tick, tock)}})
	h = &PossMapping{A: conc, B: abs, Map: func(ioa.State) []ioa.State {
		return []ioa.State{s("p")}
	}}
	return conc, abs, h
}

func TestProductMapping(t *testing.T) {
	c1, a1, h1 := liftPair(t, "1")
	c2, a2, h2 := liftPair(t, "2")
	if err := h1.VerifyOpts(explore.Options{Limit: 100}); err != nil {
		t.Fatalf("component mapping 1: %v", err)
	}
	ca, err := ioa.Compose("concs", c1, c2)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := ioa.Compose("abss", a1, a2)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ProductMapping(ca, ab, []*PossMapping{h1, h2})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.VerifyOpts(explore.Options{Limit: 1000}); err != nil {
		t.Fatalf("Lemma 31 product mapping failed verification: %v", err)
	}
	// And corresponding executions exist across the product.
	x := ioa.NewExecution(ca, ca.Start()[0])
	for _, act := range []ioa.Action{"tick1", "tick2", "tick1", "tock2"} {
		_ = x.Extend(act, 0)
	}
	y, err := h.Correspond(x)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckCorrespondence(x, y, ab); err != nil {
		t.Fatal(err)
	}
}

func TestProductMappingValidation(t *testing.T) {
	c1, a1, h1 := liftPair(t, "1")
	c2, a2, h2 := liftPair(t, "2")
	ca, _ := ioa.Compose("c", c1, c2)
	ab, _ := ioa.Compose("a", a1, a2)
	if _, err := ProductMapping(ca, ab, []*PossMapping{h1}); err == nil {
		t.Error("link count mismatch must be rejected")
	}
	if _, err := ProductMapping(ca, ab, []*PossMapping{h2, h1}); err == nil {
		t.Error("misordered links must be rejected")
	}
}

func TestRenameMapping(t *testing.T) {
	_, _, h := liftPair(t, "1")
	if err := h.VerifyOpts(explore.Options{Limit: 100}); err != nil {
		t.Fatal(err)
	}
	f := ioa.MustMapping(map[ioa.Action]ioa.Action{"tick1": "t", "tock1": "k"})
	rh, err := RenameMapping(h, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := rh.VerifyOpts(explore.Options{Limit: 100}); err != nil {
		t.Fatalf("Lemma 27: renamed mapping must still verify: %v", err)
	}
	if !rh.A.Sig().IsOutput("t") {
		t.Error("renamed A-side signature wrong")
	}
}
