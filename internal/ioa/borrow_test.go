package ioa_test

// The borrowed walk against the heap walk it must agree with. A scratch
// changes where Next builds its successors, never which or in what
// order, so on catalogue systems whose arbiter is a composition nested
// under Hide and Rename both must produce the same keys in the same
// order, from every reachable state and by every action; and what Keep
// returns must survive the Reset that takes the borrowed original back.

import (
	"context"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/explore"
	"repro/internal/ioa"
)

// catalogueReach builds a catalogue system and its reachable states.
func catalogueReach(t *testing.T, name string, users int) (ioa.Automaton, []ioa.State) {
	t.Helper()
	sys, err := bench.FindSystem(name)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Build(bench.Params{Users: users})
	if err != nil {
		t.Fatal(err)
	}
	states, err := explore.New(explore.Options{Workers: 1}).Reach(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	return a, states
}

func TestBorrowedWalkAgreesWithNext(t *testing.T) {
	ioa.SetScratchPoison(true)
	defer ioa.SetScratchPoison(false)
	for _, sys := range []struct {
		name  string
		users int
	}{{"arbiter3", 3}, {"arbiter3", 4}, {"star", 3}, {"ring", 3}} {
		a, states := catalogueReach(t, sys.name, sys.users)
		acts := a.Sig().Acts().Sorted()
		var sc ioa.Scratch
		var borrowed, kept []ioa.State
		steps := 0
		for _, s := range states {
			sc.Reset()
			// What the last state's walk lent is gone; what was kept of it
			// is not.
			for i, b := range borrowed {
				if got := string(ioa.AppendState(nil, b)); got == kept[i].Key() {
					t.Fatalf("%s/%d: a borrowed successor still reads %q after Reset: the poison switch is off or the scratch was not used", sys.name, sys.users, got)
				}
			}
			borrowed, kept = borrowed[:0], kept[:0]
			for _, act := range acts {
				var heap, lent []string
				a.Next(nil, s, act, func(nxt ioa.State) bool {
					if ioa.Keep(nxt) != nxt {
						t.Fatalf("%s/%d: Keep copied a heap successor of %q by %s", sys.name, sys.users, s.Key(), act)
					}
					heap = append(heap, nxt.Key())
					return true
				})
				a.Next(&sc, s, act, func(nxt ioa.State) bool {
					enc := ioa.AppendState(nil, nxt)
					k := ioa.Keep(nxt)
					if k == nxt {
						t.Fatalf("%s/%d: successor of %q by %s was not borrowed", sys.name, sys.users, s.Key(), act)
					}
					if got := ioa.AppendState(nil, k); string(got) != string(enc) {
						t.Fatalf("%s/%d: Keep changed the encoding: %q, was %q", sys.name, sys.users, got, enc)
					}
					lent = append(lent, string(enc))
					borrowed, kept = append(borrowed, nxt), append(kept, k)
					return true
				})
				if !slices.Equal(lent, heap) {
					t.Fatalf("%s/%d: from %q by %s:\n heap     %q\n borrowed %q", sys.name, sys.users, s.Key(), act, heap, lent)
				}
				steps += len(heap)
			}
		}
		if steps == 0 {
			t.Fatalf("%s/%d: no steps compared", sys.name, sys.users)
		}
	}
}

// TestKeepIsDeepOnBorrowedLevelsOnly: a kept successor shares with its
// parent every part the step left alone — including the whole nested
// arbiter when only a user moved — and owns a copy of every level the
// step rebuilt, so nothing of it reads as poison after Reset.
func TestKeepIsDeepOnBorrowedLevelsOnly(t *testing.T) {
	ioa.SetScratchPoison(true)
	defer ioa.SetScratchPoison(false)
	a, states := catalogueReach(t, "arbiter3", 3)
	var sc ioa.Scratch
	shared, rebuilt := 0, 0
	for _, s := range states {
		parent := s.(*ioa.TupleState)
		var kept []*ioa.TupleState
		var keys []string
		sc.Reset()
		for _, act := range a.Enabled(s) {
			a.Next(&sc, s, act, func(nxt ioa.State) bool {
				kept = append(kept, ioa.Keep(nxt).(*ioa.TupleState))
				keys = append(keys, nxt.Key())
				return true
			})
		}
		sc.Reset()
		for i, k := range kept {
			if got := string(ioa.AppendState(nil, k)); got != keys[i] {
				t.Fatalf("kept successor of %q reads %q after Reset, was %q", s.Key(), got, keys[i])
			}
			if ioa.Keep(k) != ioa.State(k) {
				t.Fatalf("Keep copied a kept state")
			}
			for p := 0; p < k.Len(); p++ {
				switch {
				case k.At(p) == parent.At(p):
					shared++
				case k.At(p).Key() == parent.At(p).Key():
					t.Fatalf("part %d of a successor of %q is an equal copy of the parent's, not the parent's", p, s.Key())
				default:
					rebuilt++
				}
			}
		}
	}
	if shared == 0 || rebuilt == 0 {
		t.Fatalf("shared %d parts and rebuilt %d: the walk did not exercise both", shared, rebuilt)
	}
}

// inputReporter's Enabled also lists its inputs, which the Enabled
// contract leaves open.
type inputReporter struct{ ioa.Automaton }

func (r inputReporter) Enabled(s ioa.State) []ioa.Action {
	return append(r.Automaton.Enabled(s), r.Sig().Inputs().Sorted()...)
}

// TestWalkStepsEachActionOnce: a sorted walk steps an action Enabled
// repeats as an input once, so a graph edge or an induction transition
// is never counted twice. The unsorted walk steps it twice — which
// shows the input does repeat — and its level merge drops the repeat.
func TestWalkStepsEachActionOnce(t *testing.T) {
	sig := ioa.MustSignature([]ioa.Action{"in"}, []ioa.Action{"out"}, nil)
	a := inputReporter{ioa.MustTable("rep", sig, []ioa.State{ioa.KeyState("0")}, []ioa.Step{
		{From: ioa.KeyState("0"), Act: "in", To: ioa.KeyState("1")},
		{From: ioa.KeyState("1"), Act: "in", To: ioa.KeyState("1")},
		{From: ioa.KeyState("1"), Act: "out", To: ioa.KeyState("0")},
	}, []ioa.Class{{Name: "rep", Actions: ioa.NewSet("out")}})}
	for _, tc := range []struct {
		sorted bool
		want   []string
	}{
		{true, []string{"in>1", "out>0"}},
		{false, []string{"out>0", "in>1", "in>1"}},
	} {
		walk := ioa.NewWalk(a, tc.sorted)
		var got []string
		walk.Visit(ioa.KeyState("1"), func(nxt ioa.State) bool {
			got = append(got, string(walk.Act)+">"+nxt.Key())
			return true
		})
		if !slices.Equal(got, tc.want) {
			t.Errorf("sorted=%v: walk yields %q, want %q", tc.sorted, got, tc.want)
		}
	}
}
