package proof

import (
	"errors"
	"testing"

	"repro/internal/explore"
	"repro/internal/ioa"
)

// twoCounter counts modulo 2; absCounter abstracts it to parity-only
// with a possibilities mapping. Used to exercise the mapping machinery
// on a case small enough to verify by hand.

func modCounter(t *testing.T, name string, mod int) *ioa.Table {
	t.Helper()
	sig := ioa.MustSignature([]ioa.Action{"tick"}, []ioa.Action{"fire"}, nil)
	var steps []ioa.Step
	st := func(i int) ioa.State { return ioa.KeyState(string(rune('0' + i))) }
	for i := 0; i < mod; i++ {
		steps = append(steps, ioa.Step{From: st(i), Act: "tick", To: st((i + 1) % mod)})
		if i == 0 {
			steps = append(steps, ioa.Step{From: st(0), Act: "fire", To: st(0)})
		}
	}
	return ioa.MustTable(name, sig, []ioa.State{st(0)}, steps,
		[]ioa.Class{{Name: "c", Actions: ioa.NewSet("fire")}})
}

// TestPossMappingVerifies checks a correct mapping: a mod-4 counter
// whose "fire" is enabled at both even states maps onto the mod-2
// counter by parity. (The plain mod-4 counter with fire only at 0
// would NOT map by parity — condition 2(a) fails at state 2, which is
// exactly what TestPossMappingRejectsBrokenMap exercises.)
func TestPossMappingVerifies(t *testing.T) {
	// A: mod-4 counter with fire enabled at 0 AND 2.
	sig := ioa.MustSignature([]ioa.Action{"tick"}, []ioa.Action{"fire"}, nil)
	st := func(s string) ioa.State { return ioa.KeyState(s) }
	a := ioa.MustTable("mod4", sig,
		[]ioa.State{st("0")},
		[]ioa.Step{
			{From: st("0"), Act: "tick", To: st("1")},
			{From: st("1"), Act: "tick", To: st("2")},
			{From: st("2"), Act: "tick", To: st("3")},
			{From: st("3"), Act: "tick", To: st("0")},
			{From: st("0"), Act: "fire", To: st("0")},
			{From: st("2"), Act: "fire", To: st("2")},
		},
		[]ioa.Class{{Name: "c", Actions: ioa.NewSet("fire")}})
	b := modCounter(t, "mod2", 2)
	h := &PossMapping{
		A: a,
		B: b,
		Map: func(s ioa.State) []ioa.State {
			switch s.Key() {
			case "0", "2":
				return []ioa.State{st("0")}
			default:
				return []ioa.State{st("1")}
			}
		},
	}
	if err := h.VerifyOpts(explore.Options{Limit: 1000}); err != nil {
		t.Fatalf("parity mapping should verify: %v", err)
	}

	// Lemma 28/29: corresponding executions.
	x := ioa.NewExecution(a, a.Start()[0])
	for _, act := range []ioa.Action{"fire", "tick", "tick", "fire", "tick"} {
		if err := x.Extend(act, 0); err != nil {
			t.Fatal(err)
		}
	}
	y, err := h.Correspond(x)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckCorrespondence(x, y, b); err != nil {
		t.Fatal(err)
	}
	if err := y.Validate(true); err != nil {
		t.Fatalf("corresponding execution invalid: %v", err)
	}
}

func TestPossMappingRejectsBrokenMap(t *testing.T) {
	// Mapping every state of mod-4 to "0" of mod-2 breaks condition
	// 2(a) on tick steps (no tick step 0→0 in B).
	a := modCounter(t, "mod4b", 4)
	b := modCounter(t, "mod2b", 2)
	h := &PossMapping{
		A:   a,
		B:   b,
		Map: func(ioa.State) []ioa.State { return []ioa.State{ioa.KeyState("0")} },
	}
	err := h.VerifyOpts(explore.Options{Limit: 1000})
	if !errors.Is(err, ErrNotPossibilities) {
		t.Fatalf("want ErrNotPossibilities, got %v", err)
	}
}

func TestPossMappingRejectsSignatureMismatch(t *testing.T) {
	a := modCounter(t, "m2", 2)
	sig := ioa.MustSignature(nil, []ioa.Action{"other"}, nil)
	b := ioa.MustTable("other", sig, []ioa.State{ioa.KeyState("0")},
		[]ioa.Step{{From: ioa.KeyState("0"), Act: "other", To: ioa.KeyState("0")}},
		[]ioa.Class{{Name: "c", Actions: ioa.NewSet("other")}})
	h := &PossMapping{A: a, B: b, Map: func(ioa.State) []ioa.State { return b.Start() }}
	if err := h.VerifyOpts(explore.Options{Limit: 100}); !errors.Is(err, ErrNotPossibilities) {
		t.Fatalf("want signature mismatch, got %v", err)
	}
}

func TestPossMappingRejectsBadStart(t *testing.T) {
	a := modCounter(t, "m2c", 2)
	b := modCounter(t, "m2d", 2)
	h := &PossMapping{
		A: a,
		B: b,
		// Start state 0 maps only to non-start state 1.
		Map: func(s ioa.State) []ioa.State {
			if s.Key() == "0" {
				return []ioa.State{ioa.KeyState("1")}
			}
			return []ioa.State{ioa.KeyState("0")}
		},
	}
	if err := h.VerifyOpts(explore.Options{Limit: 100}); !errors.Is(err, ErrNotPossibilities) {
		t.Fatalf("want start-state violation, got %v", err)
	}
}

func TestTransferDown(t *testing.T) {
	a := modCounter(t, "m4e", 4)
	b := modCounter(t, "m2e", 2)
	h := &PossMapping{
		A: a,
		B: b,
		Map: func(s ioa.State) []ioa.State {
			if s.Key() == "0" || s.Key() == "2" {
				return []ioa.State{ioa.KeyState("0")}
			}
			return []ioa.State{ioa.KeyState("1")}
		},
	}
	u := func(s ioa.State) bool { return s.Key() == "0" }
	v := func(a ioa.Action) bool { return a == "fire" }
	// S = h⁻¹(U) = {0, 2}; T = {fire} ⊆ V.
	s := func(st ioa.State) bool { return st.Key() == "0" || st.Key() == "2" }
	if err := h.TransferDownOpts(explore.Options{Limit: 100}, s, v, u, v); err != nil {
		t.Errorf("TransferDown should pass: %v", err)
	}
	// Too-small S must be rejected.
	sSmall := func(st ioa.State) bool { return st.Key() == "0" }
	if err := h.TransferDownOpts(explore.Options{Limit: 100}, sSmall, v, u, v); err == nil {
		t.Error("TransferDown must reject S ⊉ h⁻¹(U)")
	}
	// T outside V must be rejected.
	tBig := func(a ioa.Action) bool { return true }
	if err := h.TransferDownOpts(explore.Options{Limit: 100}, s, tBig, u, v); err == nil {
		t.Error("TransferDown must reject T ⊄ V")
	}
}
