package explore_test

// The borrow contract of ioa.Walk, checked rather than trusted. This file's
// init turns ioa's scratch poisoning on for the whole test binary: every
// Walk.Visit then overwrites what the Visit before it lent, so a loop
// that retains a successor without ioa.Keep hands garbage to the
// differential, spill, merge and census batteries — which is what makes
// those, unedited, the tests of seqExplore's, expandLevel's and the
// census's side of the contract. The must-fail arm below shows the
// switch catches exactly that mistake; the allocation fence shows what
// the contract buys.

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/explore"
	"repro/internal/ioa"
)

func init() { ioa.SetScratchPoison(true) }

func closedArbiter(t *testing.T, users int) (ioa.Automaton, []ioa.State) {
	t.Helper()
	a, err := bench.ExploreSystem(3, users)
	if err != nil {
		t.Fatal(err)
	}
	states, err := explore.New(explore.Options{Workers: 1}).Reach(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	return a, states
}

// TestStepRetainWithoutKeepIsCaught: two consumers walk the same
// states. The one that retains what yield handed it reads ioa.PoisonKey
// from every retained successor once the Walk has moved on; the one
// that retains ioa.Keep of it reads the successor.
func TestStepRetainWithoutKeepIsCaught(t *testing.T) {
	a, states := closedArbiter(t, 3)
	step := ioa.NewWalk(a, true)
	var want []string
	var retained, kept []ioa.State
	for _, s := range states {
		step.Visit(s, func(nxt ioa.State) bool {
			want = append(want, nxt.Key())
			retained = append(retained, nxt)
			kept = append(kept, ioa.Keep(nxt))
			return true
		})
	}
	step.Visit(states[0], func(ioa.State) bool { return true }) // move on from the last state too
	if len(want) == 0 {
		t.Fatal("no successors")
	}
	for i := range want {
		if got := string(ioa.AppendState(nil, kept[i])); got != want[i] {
			t.Fatalf("successor %d kept with ioa.Keep reads %q, want %q", i, got, want[i])
		}
		ts := retained[i].(*ioa.TupleState)
		for p := 0; p < ts.Len(); p++ {
			if got := ts.At(p).Key(); got != ioa.PoisonKey {
				t.Fatalf("part %d of successor %d, retained without ioa.Keep, still reads %q after the next Visit; want %q", p, i, got, ioa.PoisonKey)
			}
		}
	}
}

// TestStepVisitAllocatesNothingPerSuccessor: a warmed-up sweep whose
// yield only encodes costs exactly the allocations of Enabled on the
// same states — no tuple, no part vector, no successor slice, at either
// level of the nested composition — and Enabled is one list: at most
// one object per state.
func TestStepVisitAllocatesNothingPerSuccessor(t *testing.T) {
	ioa.SetScratchPoison(false) // a poisoned scratch abandons its memory on every Reset
	defer ioa.SetScratchPoison(true)
	// The wrappers that step by delegation step their inner automaton in
	// the walk's scratch, so a sweep through them allocates no more than
	// their Enabled either. Each arm builds its own arbiter, so its memo
	// rows warm up exactly as the bare one's do.
	for _, wrap := range []func(ioa.Automaton) ioa.Automaton{
		func(a ioa.Automaton) ioa.Automaton { return a },
		explore.ClosedWorld,
		func(a ioa.Automaton) ioa.Automaton { return ioa.HideOutputsExcept(a, nil) },
		func(a ioa.Automaton) ioa.Automaton {
			out := a.Sig().Outputs().Sorted()[0]
			return ioa.MustRename(a, ioa.MustMapping(map[ioa.Action]ioa.Action{out: out + "'"}))
		},
	} {
		arbiter, states := closedArbiter(t, 4)
		a := wrap(arbiter)
		step := ioa.NewWalk(a, true)
		var enc []byte
		successors := 0
		encode := func(nxt ioa.State) bool {
			enc = ioa.AppendState(enc[:0], nxt)
			successors++
			return true
		}
		sweep := func() {
			for _, s := range states {
				step.Visit(s, encode)
			}
		}
		sweep() // warm the memo, the scratch chunks and the buffers
		successors = 0
		sweep()
		perSweep := successors
		enabledOnly := testing.AllocsPerRun(5, func() {
			for _, s := range states {
				_ = a.Enabled(s)
			}
		})
		stepping := testing.AllocsPerRun(5, sweep)
		if perSweep < 2*len(states) {
			t.Fatalf("%s: %d successors of %d states: the sweep did not step", a.Name(), perSweep, len(states))
		}
		if stepping > enabledOnly {
			t.Errorf("%s: a sweep over %d states and %d successors allocates %.0f objects, Enabled alone %.0f: %.2f per successor, want 0",
				a.Name(), len(states), perSweep, stepping, enabledOnly, (stepping-enabledOnly)/float64(perSweep))
		}
		if a == arbiter && stepping > float64(len(states)) {
			t.Errorf("%s: a sweep over %d states allocates %.0f objects: %.2f per state, want at most 1",
				a.Name(), len(states), stepping, stepping/float64(len(states)))
		}
	}
}

// TestStepRecordsEnabled: Walk.Enabled is the length of the Enabled list
// of the last state visited, sorted walk or not — what the census loops
// count deadlocks from instead of asking the automaton twice.
func TestStepRecordsEnabled(t *testing.T) {
	a, states := closedArbiter(t, 2)
	deadEnd := chain(3)
	for _, sorted := range []bool{false, true} {
		step := ioa.NewWalk(a, sorted)
		for _, s := range states {
			step.Visit(s, func(ioa.State) bool { return true })
			if want := len(a.Enabled(s)); step.Enabled != want {
				t.Fatalf("sorted=%v: Walk.Enabled = %d at %s, Enabled lists %d", sorted, step.Enabled, s.Key(), want)
			}
		}
		step = ioa.NewWalk(deadEnd, sorted)
		step.Visit(ioa.KeyState("c02"), func(ioa.State) bool { t.Fatal("the end of the chain has a successor"); return true })
		if step.Enabled != 0 {
			t.Fatalf("sorted=%v: Walk.Enabled = %d at a deadlock", sorted, step.Enabled)
		}
	}
}
