package explore_test

// Differential battery: the parallel sharded explorer must agree with
// the sequential explorer on state sets, invariant verdicts, and error
// behavior, over randomized automata (seeded via internal/testseed),
// compositions, and the repository's real systems.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arbiter/dist"
	"repro/internal/explore"
	"repro/internal/figures"
	"repro/internal/graph"
	"repro/internal/ioa"
	"repro/internal/testseed"
)

// randTable builds a small random table automaton over the given
// action sets (every output/internal action its own class).
func randTable(rng *rand.Rand, name string, in, out, internal []ioa.Action) *ioa.Table {
	sig := ioa.MustSignature(in, out, internal)
	nStates := 2 + rng.Intn(4)
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

// randSystem builds either a single random table automaton or a
// random composition of two or three interacting components — the
// shapes exploration actually runs on.
func randSystem(rng *rand.Rand, seed int64) ioa.Automaton {
	switch rng.Intn(3) {
	case 0:
		return randTable(rng, fmt.Sprintf("S%d", seed), []ioa.Action{"i"}, []ioa.Action{"x", "y"}, []ioa.Action{"h"})
	case 1:
		a := randTable(rng, "A", []ioa.Action{"y"}, []ioa.Action{"x"}, []ioa.Action{"ha"})
		b := randTable(rng, "B", []ioa.Action{"x"}, []ioa.Action{"y"}, nil)
		return ioa.MustCompose(fmt.Sprintf("AB%d", seed), a, b)
	default:
		a := randTable(rng, "A", []ioa.Action{"z"}, []ioa.Action{"x"}, nil)
		b := randTable(rng, "B", []ioa.Action{"x"}, []ioa.Action{"y"}, []ioa.Action{"hb"})
		c := randTable(rng, "C", []ioa.Action{"y"}, []ioa.Action{"z"}, nil)
		return ioa.MustCompose(fmt.Sprintf("ABC%d", seed), a, b, c)
	}
}

func stateSet(states []ioa.State) map[string]struct{} {
	m := make(map[string]struct{}, len(states))
	for _, s := range states {
		m[s.Key()] = struct{}{}
	}
	return m
}

// TestDifferentialReachRandom: Reach ≡ ReferenceReach, element-wise,
// on randomized automata.
func TestDifferentialReachRandom(t *testing.T) {
	base := testseed.Base(t)
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(base + seed))
		a := randSystem(rng, seed)
		ref, err := explore.ReferenceReach(a, explore.DefaultLimit)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := explore.New(explore.Options{}).Reach(context.Background(), a)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		assertSameOrder(t, fmt.Sprintf("seed %d", seed), ref, got)
	}
}

// TestDifferentialReachDeterministic: the kernel's result is
// element-wise the same on every run.
func TestDifferentialReachDeterministic(t *testing.T) {
	base := testseed.Base(t)
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(base + 200 + seed))
		a := randSystem(rng, seed)
		ref, err := explore.New(explore.Options{}).Reach(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 3; run++ {
			got, err := reachOf(a, explore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			assertSameOrder(t, fmt.Sprintf("seed %d run %d", seed, run), ref, got)
		}
	}
}

// TestDifferentialInvariantVerdicts: CheckInvariant's verdicts are the
// oracle's (a violation iff some reachable state fails the predicate),
// and its witnesses are valid traces as short as the shallowest
// violating state's BFS depth.
func TestDifferentialInvariantVerdicts(t *testing.T) {
	base := testseed.Base(t)
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(base + 300 + seed))
		a := randSystem(rng, seed)
		depth := make(map[string]int)
		for d, lvl := range bfsLevels(a) {
			for _, k := range lvl {
				depth[k] = d
			}
		}
		reach, err := explore.ReferenceReach(a, explore.DefaultLimit)
		if err != nil {
			t.Fatal(err)
		}
		// One predicate that fails at a random reachable state, one
		// tautology, one that fails only at a start state.
		victim := reach[rng.Intn(len(reach))].Key()
		preds := map[string]func(ioa.State) bool{
			"victim":    func(s ioa.State) bool { return s.Key() != victim },
			"tautology": func(ioa.State) bool { return true },
			"start":     func(s ioa.State) bool { return s.Key() != a.Start()[0].Key() },
		}
		for name, pred := range preds {
			shallowest := -1
			for _, s := range reach {
				if !pred(s) && (shallowest < 0 || depth[s.Key()] < shallowest) {
					shallowest = depth[s.Key()]
				}
			}
			v, err := checkOf(a, explore.Options{}, pred)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if (v == nil) != (shallowest < 0) {
				t.Fatalf("seed %d %s: violation %v, want one iff a reachable state fails (shallowest depth %d)",
					seed, name, v, shallowest)
			}
			if v == nil {
				continue
			}
			if pred(v.State) {
				t.Fatalf("seed %d %s: violation state %q satisfies pred", seed, name, v.State.Key())
			}
			if err := v.Trace.Validate(true); err != nil {
				t.Fatalf("seed %d %s: witness invalid: %v", seed, name, err)
			}
			if v.Trace.Last().Key() != v.State.Key() {
				t.Fatalf("seed %d %s: witness does not end at the violation", seed, name)
			}
			// BFS finds violations at minimal depth.
			if len(v.Trace.Acts) != shallowest {
				t.Fatalf("seed %d %s: witness depth %d, want %d", seed, name, len(v.Trace.Acts), shallowest)
			}
		}
	}
}

// bfsLevels computes the reachable states grouped by BFS depth,
// sequentially — the test oracle for partial-result checks.
func bfsLevels(a ioa.Automaton) [][]string {
	acts := a.Sig().Acts().Sorted()
	seen := make(map[string]struct{})
	var levels [][]string
	var level []ioa.State
	for _, s := range a.Start() {
		if _, ok := seen[s.Key()]; ok {
			continue
		}
		seen[s.Key()] = struct{}{}
		level = append(level, s)
	}
	for len(level) > 0 {
		keys := make([]string, 0, len(level))
		for _, s := range level {
			keys = append(keys, s.Key())
		}
		levels = append(levels, keys)
		var next []ioa.State
		for _, s := range level {
			for _, act := range acts {
				for _, nxt := range ioa.Successors(a, s, act) {
					if _, ok := seen[nxt.Key()]; ok {
						continue
					}
					seen[nxt.Key()] = struct{}{}
					next = append(next, nxt)
				}
			}
		}
		level = next
	}
	return levels
}

// TestDifferentialErrLimitContract: under a tight budget Reach returns
// explore.ErrLimit with exactly limit states, a subset of the true
// reachable set holding every complete BFS level.
func TestDifferentialErrLimitContract(t *testing.T) {
	base := testseed.Base(t)
	tried := 0
	for seed := int64(0); seed < 40 && tried < 12; seed++ {
		rng := rand.New(rand.NewSource(base + 400 + seed))
		a := randSystem(rng, seed)
		full, err := explore.New(explore.Options{}).Reach(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		if len(full) < 4 {
			continue // too small to truncate meaningfully
		}
		tried++
		limit := len(full)/2 + 1
		part, err := reachOf(a, explore.Options{Limit: limit})
		if !errors.Is(err, explore.ErrLimit) {
			t.Fatalf("seed %d: Reach(limit=%d) err = %v, want explore.ErrLimit", seed, limit, err)
		}
		if len(part) != limit {
			t.Fatalf("seed %d: partial result holds %d states, want the limit %d", seed, len(part), limit)
		}
		fullSet := stateSet(full)
		ps := stateSet(part)
		for k := range ps {
			if _, ok := fullSet[k]; !ok {
				t.Fatalf("seed %d: partial result contains unreachable %q", seed, k)
			}
		}
		// Every complete level (all of whose states fit in the
		// budget in cumulative depth order) must be present.
		admitted := 0
		for _, lvl := range bfsLevels(a) {
			if admitted+len(lvl) > limit {
				break
			}
			admitted += len(lvl)
			for _, k := range lvl {
				if _, ok := ps[k]; !ok {
					t.Fatalf("seed %d: complete-level state %q missing from partial result", seed, k)
				}
			}
		}
	}
	if tried == 0 {
		t.Fatal("no random system was large enough to exercise explore.ErrLimit")
	}
}

// TestDifferentialCheckLimitErrors: an invariant check whose budget is
// below the reachable set reports explore.ErrLimit, never a violation
// of a tautology.
func TestDifferentialCheckLimitErrors(t *testing.T) {
	base := testseed.Base(t)
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(base + 500 + seed))
		a := randSystem(rng, seed)
		full, err := explore.New(explore.Options{}).Reach(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		if len(full) < 4 {
			continue
		}
		limit := len(full) / 2
		v, err := checkOf(a, explore.Options{Limit: limit}, func(ioa.State) bool { return true })
		if v != nil {
			t.Fatalf("seed %d: tautology produced violation %v", seed, v)
		}
		if !errors.Is(err, explore.ErrLimit) {
			t.Fatalf("seed %d: err = %v, want explore.ErrLimit", seed, err)
		}
	}
}

// TestDifferentialRealSystems runs the differential contract on the
// repo's actual automata: the Fig. 2.1 ping-pong, a hidden/renamed
// variant, and the level-3 distributed arbiter on the Figure 3.2
// instance (open, i.e. with free environment inputs).
func TestDifferentialRealSystems(t *testing.T) {
	systems := map[string]ioa.Automaton{
		"fig21":        figures.Fig21(),
		"fig21-hidden": ioa.Hide(figures.Fig21(), ioa.NewSet(figures.Beta)),
	}
	tr, err := graph.Figure32()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := dist.New(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	systems["arbiterA3"] = sys.A3
	for name, a := range systems {
		ref, err := explore.ReferenceReach(a, explore.DefaultLimit)
		if err != nil {
			t.Fatal(err)
		}
		got, err := reachOf(a, explore.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertSameOrder(t, name, ref, got)
		// Invariant check on a real predicate: "the key of every
		// reachable state differs from the last one" — false exactly
		// once.
		victim := ref[len(ref)-1].Key()
		v, err := checkOf(a, explore.Options{}, func(s ioa.State) bool { return s.Key() != victim })
		if err != nil {
			t.Fatal(err)
		}
		if v == nil || v.State.Key() != victim {
			t.Fatalf("%s: violation %v, want one at %q", name, v, victim)
		}
		if err := v.Trace.Validate(true); err != nil {
			t.Fatalf("%s: invalid witness: %v", name, err)
		}
	}
}

// TestReachOptsDispatch: the options front door explores in RAM with
// zero Options, in ReferenceReach's order, and CheckInvariant under
// them finds nothing to refute in a tautology.
func TestReachOptsDispatch(t *testing.T) {
	a := figures.Fig21()
	ref, err := explore.ReferenceReach(a, explore.DefaultLimit)
	if err != nil {
		t.Fatal(err)
	}
	got, err := explore.New(explore.Options{}).Reach(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	assertSameOrder(t, "dispatch", ref, got)
	if v, err := explore.New(explore.Options{}).CheckInvariant(context.Background(), a, func(ioa.State) bool { return true }); err != nil || v != nil {
		t.Fatalf("CheckInvariantOpts: v=%v err=%v", v, err)
	}
}
