package ioa_test

// Native fuzz targets for the Chapter 2 algebra. Each fuzz input is a
// seed plus shape bytes from which small random automata are derived
// deterministically, so every corpus entry is a reproducible law
// check: composition laws (compatibility, commutativity and
// associativity of ·, Corollary 3 on enabled sets) and the
// hide/rename laws (signature duality, schedule invariance, behavior
// renaming). `go test -fuzz=FuzzComposeLaws` (or FuzzHideRename)
// explores beyond the seed corpus under testdata/fuzz/.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/explore"
	"repro/internal/ioa"
)

// fuzzDepth bounds the schedule enumerations; small keeps each fuzz
// iteration fast while still exercising interleavings.
const fuzzDepth = 3

// fuzzAutomaton derives a table automaton from the rng, like
// randAutomaton but with the state count driven by a shape byte.
func fuzzAutomaton(rng *rand.Rand, shape uint8, name string, in, out, internal []ioa.Action) *ioa.Table {
	sig := ioa.MustSignature(in, out, internal)
	nStates := 2 + int(shape)%3
	states := make([]ioa.State, nStates)
	for i := range states {
		states[i] = ioa.KeyState(fmt.Sprintf("%s%d", name, i))
	}
	var steps []ioa.Step
	all := append(append(append([]ioa.Action(nil), in...), out...), internal...)
	for _, act := range all {
		k := 1 + rng.Intn(3)
		for j := 0; j < k; j++ {
			steps = append(steps, ioa.Step{
				From: states[rng.Intn(nStates)],
				Act:  act,
				To:   states[rng.Intn(nStates)],
			})
		}
	}
	var classes []ioa.Class
	for _, act := range append(append([]ioa.Action(nil), out...), internal...) {
		classes = append(classes, ioa.Class{Name: name + "-" + string(act), Actions: ioa.NewSet(act)})
	}
	return ioa.MustTable(name, sig, states[:1], steps, classes)
}

func fuzzSchedules(t *testing.T, a ioa.Automaton) *ioa.SchedModule {
	t.Helper()
	m, err := explore.New(explore.Options{}).Schedules(context.Background(), a, fuzzDepth)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// FuzzComposeLaws checks the composition algebra on derived automata:
//
//   - A·B is defined exactly when the signatures are compatible, and
//     sharing an output makes them incompatible;
//   - commutativity: Scheds(A·B) = Scheds(B·A);
//   - associativity: Scheds((A·B)·C) = Scheds(A·(B·C)), with equal
//     signatures;
//   - Corollary 3: a locally-controlled action is enabled in the
//     composition iff Next is nonempty, at every bounded-reachable
//     state.
func FuzzComposeLaws(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1), uint8(2))
	f.Add(int64(42), uint8(3), uint8(1), uint8(4))
	f.Add(int64(-7), uint8(255), uint8(128), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, s1, s2, s3 uint8) {
		rng := rand.New(rand.NewSource(seed))
		// A emits x (input y), B emits y (input x), C emits z and
		// listens to x: a cyclic interaction plus an observer.
		a := fuzzAutomaton(rng, s1, "A", []ioa.Action{"y"}, []ioa.Action{"x"}, []ioa.Action{"ha"})
		b := fuzzAutomaton(rng, s2, "B", []ioa.Action{"x"}, []ioa.Action{"y"}, nil)
		c := fuzzAutomaton(rng, s3, "C", []ioa.Action{"x"}, []ioa.Action{"z"}, nil)

		// Output-sharing must be rejected.
		clash := fuzzAutomaton(rng, s1, "Clash", nil, []ioa.Action{"x"}, nil)
		if _, err := ioa.Compose("bad", a, clash); err == nil {
			t.Fatal("composition with shared output x accepted")
		}
		// Internal-action capture must be rejected too: ha is internal
		// to A, so another automaton with ha in its signature is
		// incompatible.
		snoop := fuzzAutomaton(rng, s2, "Snoop", []ioa.Action{"ha"}, nil, nil)
		if _, err := ioa.Compose("bad2", a, snoop); err == nil {
			t.Fatal("composition capturing internal ha accepted")
		}

		ab, err := ioa.Compose("AB", a, b)
		if err != nil {
			t.Fatal(err)
		}
		ba, err := ioa.Compose("BA", b, a)
		if err != nil {
			t.Fatal(err)
		}
		if !ab.Sig().Equal(ba.Sig()) {
			t.Fatal("commutativity: signatures differ")
		}
		if !fuzzSchedules(t, ab).Equal(fuzzSchedules(t, ba)) {
			t.Fatal("commutativity: schedule sets differ")
		}

		abc1, err := ioa.Compose("AB_C", ab, c)
		if err != nil {
			t.Fatal(err)
		}
		bc, err := ioa.Compose("BC", b, c)
		if err != nil {
			t.Fatal(err)
		}
		abc2, err := ioa.Compose("A_BC", a, bc)
		if err != nil {
			t.Fatal(err)
		}
		if !abc1.Sig().Equal(abc2.Sig()) {
			t.Fatal("associativity: signatures differ")
		}
		if !fuzzSchedules(t, abc1).Equal(fuzzSchedules(t, abc2)) {
			t.Fatal("associativity: schedule sets differ")
		}

		// Corollary 3 on the pairwise composition: enabled iff a step
		// exists, state by state.
		states, err := explore.New(explore.Options{Limit: 512}).Reach(context.Background(), ab)
		if err != nil {
			t.Fatal(err)
		}
		local := ab.Sig().Local()
		for _, s := range states {
			enabled := ioa.NewSet(ab.Enabled(s)...)
			for act := range local {
				hasStep := len(ioa.Successors(ab, s, act)) > 0
				if enabled.Has(act) != hasStep {
					t.Fatalf("Corollary 3: state %q action %q: enabled=%t, step=%t",
						s.Key(), act, enabled.Has(act), hasStep)
				}
			}
		}
	})
}

// FuzzHideRename checks the hiding and renaming laws:
//
//   - hide/external duality: hiding Σ moves it from outputs to
//     internals and removes it from the external signature;
//   - schedules are invariant under hiding (only the signature
//     changes) and behaviors are the projections;
//   - an injective renaming maps schedules elementwise and composes
//     with its inverse to the identity;
//   - each of them, and a composition under them, steps by number
//     (AppendEnabled, NextNum) exactly as it does by name.
func FuzzHideRename(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(9), uint8(7))
	f.Add(int64(-3), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		a := fuzzAutomaton(rng, shape, "A", []ioa.Action{"i"}, []ioa.Action{"x", "z"}, []ioa.Action{"h"})

		// Hide z.
		hidden := ioa.Hide(a, ioa.NewSet("z"))
		sig, hsig := a.Sig(), hidden.Sig()
		if hsig.IsOutput("z") || !hsig.IsInternal("z") {
			t.Fatal("hide duality: z not moved to internal")
		}
		if !hsig.External().Equal(ioa.MustSignature([]ioa.Action{"i"}, []ioa.Action{"x"}, nil).External()) {
			t.Fatalf("hide duality: external signature %v", hsig.External())
		}
		if hsig.Acts().Len() != sig.Acts().Len() || hsig.Acts().Minus(sig.Acts()).Len() != 0 {
			t.Fatal("hide changed the action set")
		}
		sa, sh := fuzzSchedules(t, a), fuzzSchedules(t, hidden)
		if sa.Len() != sh.Len() {
			t.Fatalf("hide changed schedule count: %d vs %d", sa.Len(), sh.Len())
		}
		for _, tr := range sa.Traces() {
			if !sh.Has(tr) {
				t.Fatalf("schedule %v lost by hiding", ioa.TraceString(tr))
			}
		}
		ba, err := explore.New(explore.Options{}).Behaviors(context.Background(), a, fuzzDepth)
		if err != nil {
			t.Fatal(err)
		}
		bh, err := explore.New(explore.Options{}).Behaviors(context.Background(), hidden, fuzzDepth)
		if err != nil {
			t.Fatal(err)
		}
		keep := hidden.Sig().Ext()
		for _, tr := range ba.Traces() {
			if !bh.Has(keep.Project(tr)) {
				t.Fatalf("projected behavior %v missing after hide", ioa.TraceString(keep.Project(tr)))
			}
		}

		// Rename by a bijection and back.
		fwd := ioa.MustMapping(map[ioa.Action]ioa.Action{"x": "X", "i": "I", "h": "H"})
		bwd := ioa.MustMapping(map[ioa.Action]ioa.Action{"X": "x", "I": "i", "H": "h"})
		ra, err := ioa.Rename(a, fwd)
		if err != nil {
			t.Fatal(err)
		}
		if !ra.Sig().IsOutput("X") || !ra.Sig().IsInput("I") || !ra.Sig().IsInternal("H") {
			t.Fatalf("rename moved action kinds: %v", ra.Sig())
		}
		sr := fuzzSchedules(t, ra)
		if sr.Len() != sa.Len() {
			t.Fatalf("rename changed schedule count: %d vs %d", sr.Len(), sa.Len())
		}
		for _, tr := range sa.Traces() {
			if !sr.Has(fwd.ApplySeq(tr)) {
				t.Fatalf("renamed schedule %v missing", ioa.TraceString(fwd.ApplySeq(tr)))
			}
		}
		back, err := ioa.Rename(ra, bwd)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Sig().Equal(a.Sig()) {
			t.Fatal("rename∘rename⁻¹ changed the signature")
		}
		if !fuzzSchedules(t, back).Equal(sa) {
			t.Fatal("rename∘rename⁻¹ changed the schedules")
		}

		// Numbered: every wrapper, and a hidden renamed composition over
		// them, steps by number exactly as by name — hiding an input
		// (which makes it locally controlled) included.
		b := fuzzAutomaton(rng, shape/3, "B", []ioa.Action{"X"}, []ioa.Action{"y"}, nil)
		comp := ioa.MustRename(ioa.Hide(ioa.MustCompose("AB", ra, b), ioa.NewSet("I", "y")), bwd)
		compStates, err := explore.New(explore.Options{}).Reach(context.Background(), comp)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range []ioa.Automaton{hidden, ioa.Hide(a, ioa.NewSet("i")), ra, back, ioa.MustRename(ioa.Hide(a, ioa.NewSet("i", "z")), fwd)} {
			for _, s := range a.States() {
				if err := agreeByNumber(x, s); err != nil {
					t.Fatalf("%s: %v", x.Name(), err)
				}
			}
		}
		for _, s := range compStates {
			if err := agreeByNumber(comp, s); err != nil {
				t.Fatalf("%s: %v", comp.Name(), err)
			}
		}
	})
}

// progAction is one action of a random Def, with the tables its
// constructor's functions read: a reference for what Prog must do.
type progAction struct {
	name  ioa.Action
	ctor  int // index into progCtors
	pre   map[string]bool
	eff   map[string]ioa.State
	succs map[string][]ioa.State
}

// progCtors names the six Def constructors in the order FuzzProgStep
// draws them; the deterministic ones sit at even indices.
var progCtors = []string{"Input", "InputND", "Output", "OutputND", "Internal", "InternalND"}

// progRefEnabled is the constructors' documented meaning of enabledness:
// a locally-controlled action with a precondition is enabled where it
// holds, an *ND one where it has a successor; listed in sorted order.
func progRefEnabled(acts []progAction, s ioa.State) []ioa.Action {
	var out []ioa.Action
	for _, pa := range acts {
		switch progCtors[pa.ctor] {
		case "Output", "Internal":
			if pa.pre[s.Key()] {
				out = append(out, pa.name)
			}
		case "OutputND", "InternalND":
			if len(pa.succs[s.Key()]) > 0 {
				out = append(out, pa.name)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// progRefNext is the constructors' documented meaning of a step: an Input
// has its effect's one successor, an InputND its successors or else a
// self-loop, an Output or Internal its effect's successor where the
// precondition holds, and an *ND form its successors.
func progRefNext(pa progAction, s ioa.State) []ioa.State {
	switch progCtors[pa.ctor] {
	case "Input":
		return []ioa.State{pa.eff[s.Key()]}
	case "InputND":
		if next := pa.succs[s.Key()]; len(next) > 0 {
			return next
		}
		return []ioa.State{s}
	case "Output", "Internal":
		if pa.pre[s.Key()] {
			return []ioa.State{pa.eff[s.Key()]}
		}
		return nil
	}
	return pa.succs[s.Key()]
}

// FuzzProgStep holds Prog to the constructors' meaning: over random
// Defs on KeyState tables, mixing all six constructors with false
// guards and InputNDs that return nothing, Enabled lists and Next's
// successor keys (in order) equal the reference's, Enabled runs no
// effect, and Next runs one effect per deterministic step.
func FuzzProgStep(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(38), uint8(7))
	f.Add(int64(-5), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		states := make([]ioa.State, 2+int(shape)%4)
		for i := range states {
			states[i] = ioa.KeyState(fmt.Sprintf("s%d", i))
		}
		pick := func() ioa.State { return states[rng.Intn(len(states))] }
		effects := 0
		d := ioa.NewDef("fuzz").Start(states[0])
		acts := make([]progAction, 1+int(shape>>2)%8)
		for i := range acts {
			pa := progAction{
				name:  ioa.Action(fmt.Sprintf("a%d", rng.Intn(100)*10+i)),
				ctor:  rng.Intn(len(progCtors)),
				pre:   map[string]bool{},
				eff:   map[string]ioa.State{},
				succs: map[string][]ioa.State{},
			}
			for _, s := range states {
				pa.pre[s.Key()] = rng.Intn(3) == 0
				pa.eff[s.Key()] = pick()
				for k := rng.Intn(4); k > 0; k-- {
					pa.succs[s.Key()] = append(pa.succs[s.Key()], pick())
				}
			}
			acts[i] = pa
			class := fmt.Sprintf("c%d", rng.Intn(2))
			pre := func(s ioa.State) bool { return pa.pre[s.Key()] }
			eff := func(s ioa.State) ioa.State { effects++; return pa.eff[s.Key()] }
			next := func(s ioa.State) []ioa.State { return pa.succs[s.Key()] }
			switch progCtors[pa.ctor] {
			case "Input":
				d.Input(pa.name, eff)
			case "InputND":
				d.InputND(pa.name, next)
			case "Output":
				d.Output(pa.name, class, pre, eff)
			case "OutputND":
				d.OutputND(pa.name, class, next)
			case "Internal":
				d.Internal(pa.name, class, pre, eff)
			case "InternalND":
				d.InternalND(pa.name, class, next)
			}
		}
		p, err := d.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range states {
			got, want := p.Enabled(s), progRefEnabled(acts, s)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("Enabled(%s) = %v, want %v", s.Key(), got, want)
			}
		}
		if effects != 0 {
			t.Fatalf("Enabled ran %d effects, want 0", effects)
		}
		for _, s := range states {
			for _, pa := range append(acts, progAction{name: "bogus", ctor: 1}) {
				before := effects
				var got []string
				p.Next(nil, s, pa.name, func(nxt ioa.State) bool {
					got = append(got, nxt.Key())
					return true
				})
				var want []string
				if pa.name != "bogus" {
					for _, nxt := range progRefNext(pa, s) {
						want = append(want, nxt.Key())
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s %s from %s: successors %v, want %v", progCtors[pa.ctor], pa.name, s.Key(), got, want)
				}
				ran, deterministic := effects-before, pa.ctor%2 == 0 // Input, Output, Internal
				if deterministic && ran != len(got) || !deterministic && ran != 0 {
					t.Fatalf("%s %s from %s: %d effects for %d successors", progCtors[pa.ctor], pa.name, s.Key(), ran, len(got))
				}
			}
		}
	})
}
