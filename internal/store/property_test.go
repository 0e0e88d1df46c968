package store_test

// Property test (PR 5 satellite): interning agrees with Key() equality
// on every automaton shape the explorers actually run — tables,
// compositions, hidden and renamed variants, and fault-wrapped
// automata. Two states intern to the same ID iff their keys are equal,
// and IDs are dense in first-insertion order; this is the contract
// that lets the explorers replace string-keyed maps with the store.
// The fuzz target derives its automata exactly like the
// FuzzComposeLaws corpus (seed plus shape bytes), so the existing
// corpus shapes transfer.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/store"
)

// shapeAutomaton derives a table automaton from the rng, mirroring the
// fuzzAutomaton generator behind the FuzzComposeLaws corpus.
func shapeAutomaton(rng *rand.Rand, shape uint8, name string, in, out, internal []ioa.Action) *ioa.Table {
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

// keyless rebuilds tuple states from their parts, so the copy (and
// every tuple inside it) has never been asked for its key: the form in
// which the explorers hand successors to Intern.
func keyless(s ioa.State) ioa.State {
	ts, ok := s.(*ioa.TupleState)
	if !ok {
		return s
	}
	parts := make([]ioa.State, ts.Len())
	for i := range parts {
		parts[i] = keyless(ts.At(i))
	}
	return ioa.NewTupleState(parts)
}

// checkInternAgreesWithKey explores a (bounded) and asserts, over
// every ordered pair of visits, that interning equals Key() equality
// and that fresh IDs arrive densely in insertion order.
func checkInternAgreesWithKey(t *testing.T, label string, a ioa.Automaton) {
	t.Helper()
	states, err := explore.ReferenceReach(a, 512)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	// Visit each state twice (second pass out of order) so both the
	// fresh and the duplicate paths run for every state.
	visits := append(append([]ioa.State(nil), states...), states...)
	for i, j := len(states), len(visits)-1; i < j; i, j = i+1, j-1 {
		visits[i], visits[j] = visits[j], visits[i]
	}
	st := store.New(store.Options{})
	byKey := make(map[string]store.ID, len(states))
	for _, s := range visits {
		id, fresh := st.Intern(s)
		prev, seen := byKey[s.Key()]
		if fresh != !seen {
			t.Fatalf("%s: state %q fresh=%t, want %t", label, s.Key(), fresh, !seen)
		}
		if seen && id != prev {
			t.Fatalf("%s: state %q interned to %d and %d — ID disagrees with Key equality",
				label, s.Key(), prev, id)
		}
		if !seen {
			if want := store.ID(len(byKey)); id != want {
				t.Fatalf("%s: state %q got ID %d, want dense %d", label, s.Key(), id, want)
			}
			byKey[s.Key()] = id
		}
		// A copy whose key was never built streams to the same bytes.
		if cid, cfresh := st.Intern(keyless(s)); cfresh || cid != byKey[s.Key()] {
			t.Fatalf("%s: keyless copy of %q interned to %d fresh=%t, want %d", label, s.Key(), cid, cfresh, byKey[s.Key()])
		}
		// The probe view agrees with the writer view.
		enc := st.AppendCanonical(nil, s)
		if pid, ok := st.Probe().Lookup(enc, store.Hash(enc)); !ok || pid != byKey[s.Key()] {
			t.Fatalf("%s: probe disagrees for %q: id=%d ok=%t", label, s.Key(), pid, ok)
		}
	}
	if st.Len() != len(byKey) {
		t.Fatalf("%s: store holds %d states, want %d distinct keys", label, st.Len(), len(byKey))
	}
}

// wrappedSystems builds the automaton shapes under test from one seed
// and three shape bytes: a composition, a hidden variant, a renamed
// variant, a crash-wrapped variant, and a clamp-wrapped variant.
func wrappedSystems(t *testing.T, seed int64, s1, s2, s3 uint8) map[string]ioa.Automaton {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := shapeAutomaton(rng, s1, "A", []ioa.Action{"y"}, []ioa.Action{"x"}, []ioa.Action{"ha"})
	b := shapeAutomaton(rng, s2, "B", []ioa.Action{"x"}, []ioa.Action{"y"}, nil)
	c := shapeAutomaton(rng, s3, "C", []ioa.Action{"x"}, []ioa.Action{"z"}, nil)
	ab, err := ioa.Compose("AB", a, b)
	if err != nil {
		t.Fatal(err)
	}
	abc, err := ioa.Compose("ABC", a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	ren, err := ioa.Rename(c, ioa.MustMapping(map[ioa.Action]ioa.Action{"x": "X", "z": "Z"}))
	if err != nil {
		t.Fatal(err)
	}
	crashed, err := faults.CrashRestart(b, "B", faults.Reset)
	if err != nil {
		t.Fatal(err)
	}
	clamped := faults.Clamp(a, "id", func(s ioa.State) ioa.State { return s })
	// A composition of a (wrapped) composition: its states are tuples
	// in tuples, whose inner keys nothing has asked for.
	nested, err := ioa.Compose("AB·C", ioa.Hide(ab, ioa.NewSet("y")), c)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]ioa.Automaton{
		"composed":  ab,
		"composed3": abc,
		"nested":    nested,
		"hidden":    ioa.Hide(ab, ioa.NewSet("x")),
		"renamed":   ren,
		"crash":     crashed,
		"clamp":     clamped,
	}
}

// TestInternAgreesWithKeyShapes runs the property on the seeded corpus
// shapes directly (always-on coverage even without -fuzz).
func TestInternAgreesWithKeyShapes(t *testing.T) {
	corpus := []struct {
		seed       int64
		s1, s2, s3 uint8
	}{
		{1, 0, 1, 2},
		{42, 3, 1, 4},
		{-7, 255, 128, 0},
		{99, 7, 7, 7},
	}
	for _, c := range corpus {
		for label, a := range wrappedSystems(t, c.seed, c.s1, c.s2, c.s3) {
			checkInternAgreesWithKey(t, fmt.Sprintf("seed %d %s", c.seed, label), a)
		}
	}
}

// FuzzInternAgreesWithKey extends the property beyond the seeded
// corpus: `go test -fuzz=FuzzInternAgreesWithKey ./internal/store`.
func FuzzInternAgreesWithKey(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1), uint8(2))
	f.Add(int64(42), uint8(3), uint8(1), uint8(4))
	f.Add(int64(-7), uint8(255), uint8(128), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, s1, s2, s3 uint8) {
		for label, a := range wrappedSystems(t, seed, s1, s2, s3) {
			checkInternAgreesWithKey(t, label, a)
		}
	})
}
