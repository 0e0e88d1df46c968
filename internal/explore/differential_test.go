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

var diffWorkers = []int{1, 2, 8}

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

func assertSameSet(t *testing.T, label string, seq, par []ioa.State) {
	t.Helper()
	ss, ps := stateSet(seq), stateSet(par)
	if len(ss) != len(seq) || len(ps) != len(par) {
		t.Fatalf("%s: duplicate states in result (seq %d/%d unique, par %d/%d unique)",
			label, len(ss), len(seq), len(ps), len(par))
	}
	for k := range ss {
		if _, ok := ps[k]; !ok {
			t.Fatalf("%s: state %q reached sequentially but not in parallel", label, k)
		}
	}
	for k := range ps {
		if _, ok := ss[k]; !ok {
			t.Fatalf("%s: state %q reached in parallel but not sequentially", label, k)
		}
	}
}

// TestDifferentialReachRandom: ParallelReach ≡ Reach on state sets for
// randomized automata at every worker count.
func TestDifferentialReachRandom(t *testing.T) {
	base := testseed.Base(t)
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(base + seed))
		a := randSystem(rng, seed)
		seq, err := explore.New(explore.Options{Workers: 1, Limit: explore.DefaultLimit}).Reach(context.Background(), a)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, w := range diffWorkers {
			par, err := parallelReach(a, explore.Options{Workers: w})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, w, err)
			}
			assertSameSet(t, fmt.Sprintf("seed %d workers %d", seed, w), seq, par)
		}
	}
}

// TestDifferentialReachDeterministic: the parallel result is
// bit-identical across runs and worker counts (canonical ordering).
func TestDifferentialReachDeterministic(t *testing.T) {
	base := testseed.Base(t)
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(base + 200 + seed))
		a := randSystem(rng, seed)
		var ref []ioa.State
		for run := 0; run < 3; run++ {
			for _, w := range diffWorkers {
				got, err := parallelReach(a, explore.Options{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = got
					continue
				}
				if len(got) != len(ref) {
					t.Fatalf("seed %d: nondeterministic size %d vs %d", seed, len(got), len(ref))
				}
				for i := range got {
					if got[i].Key() != ref[i].Key() {
						t.Fatalf("seed %d workers %d: order differs at %d: %q vs %q",
							seed, w, i, got[i].Key(), ref[i].Key())
					}
				}
			}
		}
	}
}

// TestDifferentialInvariantVerdicts: CheckInvariant and ParallelCheck
// agree on verdicts (limit-free), and parallel witnesses are valid
// minimal traces.
func TestDifferentialInvariantVerdicts(t *testing.T) {
	base := testseed.Base(t)
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(base + 300 + seed))
		a := randSystem(rng, seed)
		seq, err := explore.New(explore.Options{Workers: 1, Limit: explore.DefaultLimit}).Reach(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		// One predicate that fails at a random reachable state, one
		// tautology, one that fails only at a start state.
		victim := seq[rng.Intn(len(seq))].Key()
		preds := map[string]func(ioa.State) bool{
			"victim":    func(s ioa.State) bool { return s.Key() != victim },
			"tautology": func(ioa.State) bool { return true },
			"start":     func(s ioa.State) bool { return s.Key() != a.Start()[0].Key() },
		}
		for name, pred := range preds {
			sv, err := explore.New(explore.Options{Workers: 1, Limit: explore.DefaultLimit}).CheckInvariant(context.Background(), a, pred)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range diffWorkers {
				pv, err := parallelCheck(a, explore.Options{Workers: w}, pred)
				if err != nil {
					t.Fatalf("seed %d %s workers %d: %v", seed, name, w, err)
				}
				if (sv == nil) != (pv == nil) {
					t.Fatalf("seed %d %s workers %d: verdicts differ: seq=%v par=%v",
						seed, name, w, sv, pv)
				}
				if pv == nil {
					continue
				}
				if pred(pv.State) {
					t.Fatalf("seed %d %s: parallel violation state %q satisfies pred", seed, name, pv.State.Key())
				}
				if err := pv.Trace.Validate(true); err != nil {
					t.Fatalf("seed %d %s: parallel witness invalid: %v", seed, name, err)
				}
				if pv.Trace.Last().Key() != pv.State.Key() {
					t.Fatalf("seed %d %s: witness does not end at the violation", seed, name)
				}
				// BFS finds violations at minimal depth on both paths.
				if len(pv.Trace.Acts) != len(sv.Trace.Acts) {
					t.Fatalf("seed %d %s: witness depth differs: seq=%d par=%d",
						seed, name, len(sv.Trace.Acts), len(pv.Trace.Acts))
				}
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

// TestDifferentialErrLimitContract: under a tight budget both
// explorers return explore.ErrLimit with exactly limit states; the partial
// results agree on all complete BFS levels and are subsets of the
// true reachable set.
func TestDifferentialErrLimitContract(t *testing.T) {
	base := testseed.Base(t)
	tried := 0
	for seed := int64(0); seed < 40 && tried < 12; seed++ {
		rng := rand.New(rand.NewSource(base + 400 + seed))
		a := randSystem(rng, seed)
		full, err := explore.New(explore.Options{Workers: 1, Limit: explore.DefaultLimit}).Reach(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		if len(full) < 4 {
			continue // too small to truncate meaningfully
		}
		tried++
		limit := len(full)/2 + 1
		seq, seqErr := explore.New(explore.Options{Workers: 1, Limit: limit}).Reach(context.Background(), a)
		if !errors.Is(seqErr, explore.ErrLimit) {
			t.Fatalf("seed %d: sequential explore.Reach(limit=%d) err = %v, want explore.ErrLimit", seed, limit, seqErr)
		}
		fullSet := stateSet(full)
		levels := bfsLevels(a)
		for _, w := range diffWorkers {
			par, parErr := parallelReach(a, explore.Options{Workers: w, Limit: limit})
			if !errors.Is(parErr, explore.ErrLimit) {
				t.Fatalf("seed %d workers %d: parallel err = %v, want explore.ErrLimit", seed, w, parErr)
			}
			if len(par) != len(seq) {
				t.Fatalf("seed %d workers %d: partial sizes differ: seq=%d par=%d",
					seed, w, len(seq), len(par))
			}
			ps := stateSet(par)
			for k := range ps {
				if _, ok := fullSet[k]; !ok {
					t.Fatalf("seed %d workers %d: partial result contains unreachable %q", seed, w, k)
				}
			}
			// Every complete level (all of whose states fit in the
			// budget in cumulative depth order) must be present.
			admitted := 0
			for _, lvl := range levels {
				if admitted+len(lvl) > limit {
					break
				}
				admitted += len(lvl)
				for _, k := range lvl {
					if _, ok := ps[k]; !ok {
						t.Fatalf("seed %d workers %d: complete-level state %q missing from partial result",
							seed, w, k)
					}
				}
			}
		}
	}
	if tried == 0 {
		t.Fatal("no random system was large enough to exercise explore.ErrLimit")
	}
}

// TestDifferentialCheckLimitErrors: when the sequential invariant
// check exhausts its budget cleanly, the parallel check also reports
// failure (explore.ErrLimit, or a genuine violation found on the boundary
// level).
func TestDifferentialCheckLimitErrors(t *testing.T) {
	base := testseed.Base(t)
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(base + 500 + seed))
		a := randSystem(rng, seed)
		full, err := explore.New(explore.Options{Workers: 1, Limit: explore.DefaultLimit}).Reach(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		if len(full) < 4 {
			continue
		}
		limit := len(full) / 2
		pred := func(ioa.State) bool { return true }
		_, seqErr := explore.New(explore.Options{Workers: 1, Limit: limit}).CheckInvariant(context.Background(), a, pred)
		if !errors.Is(seqErr, explore.ErrLimit) {
			t.Fatalf("seed %d: sequential err = %v, want explore.ErrLimit", seed, seqErr)
		}
		for _, w := range diffWorkers {
			pv, parErr := parallelCheck(a, explore.Options{Workers: w, Limit: limit}, pred)
			if pv != nil {
				t.Fatalf("seed %d workers %d: tautology produced violation %v", seed, w, pv)
			}
			if !errors.Is(parErr, explore.ErrLimit) {
				t.Fatalf("seed %d workers %d: parallel err = %v, want explore.ErrLimit", seed, w, parErr)
			}
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
		seq, err := explore.New(explore.Options{Workers: 1, Limit: explore.DefaultLimit}).Reach(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range diffWorkers {
			par, err := parallelReach(a, explore.Options{Workers: w})
			if err != nil {
				t.Fatalf("%s workers %d: %v", name, w, err)
			}
			assertSameSet(t, fmt.Sprintf("%s workers %d", name, w), seq, par)
		}
		// Invariant check differential on a real predicate: "the key
		// of every reachable state differs from the last sequential
		// state" — false exactly once.
		victim := seq[len(seq)-1].Key()
		pred := func(s ioa.State) bool { return s.Key() != victim }
		sv, err := explore.New(explore.Options{Workers: 1, Limit: explore.DefaultLimit}).CheckInvariant(context.Background(), a, pred)
		if err != nil {
			t.Fatal(err)
		}
		pv, err := parallelCheck(a, explore.Options{Workers: 4}, pred)
		if err != nil {
			t.Fatal(err)
		}
		if (sv == nil) != (pv == nil) {
			t.Fatalf("%s: verdicts differ", name)
		}
		if pv != nil {
			if err := pv.Trace.Validate(true); err != nil {
				t.Fatalf("%s: invalid parallel witness: %v", name, err)
			}
		}
	}
}

// TestReachOptsDispatch: the options front door picks the sequential
// path at one worker and the parallel path otherwise, with identical
// state sets either way.
func TestReachOptsDispatch(t *testing.T) {
	a := figures.Fig21()
	seq, err := explore.New(explore.Options{Workers: 1}).Reach(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	par, err := explore.New(explore.Options{Workers: 4}).Reach(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSet(t, "dispatch", seq, par)
	if v, err := explore.New(explore.Options{Workers: 4}).CheckInvariant(context.Background(), a, func(ioa.State) bool { return true }); err != nil || v != nil {
		t.Fatalf("CheckInvariantOpts: v=%v err=%v", v, err)
	}
}
