package ioa_test

// The borrowed walk against the heap walk it must agree with. A scratch
// changes where Next builds its successors, never which or in what
// order, so on catalogue systems whose arbiter is a composition nested
// under Hide and Rename both must produce the same keys in the same
// order, from every reachable state and by every action; and what Keep
// returns must survive the Reset that takes the borrowed original back.

import (
	"context"
	"fmt"
	"slices"
	"sync"
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

// doubler's Enabled lists each of its actions twice in a row: sorted,
// but not strictly.
type doubler struct{ ioa.Automaton }

func (d doubler) Enabled(s ioa.State) []ioa.Action {
	var out []ioa.Action
	for _, act := range d.Automaton.Enabled(s) {
		out = append(out, act, act)
	}
	return out
}

// TestWalkStepsEachActionOnce: a walk steps an action Enabled repeats —
// as an input, or outright in an automaton with no inputs — once, so a
// graph edge or an induction transition is never counted twice.
func TestWalkStepsEachActionOnce(t *testing.T) {
	steps := []ioa.Step{
		{From: ioa.KeyState("0"), Act: "in", To: ioa.KeyState("1")},
		{From: ioa.KeyState("1"), Act: "in", To: ioa.KeyState("1")},
		{From: ioa.KeyState("1"), Act: "out", To: ioa.KeyState("0")},
		{From: ioa.KeyState("1"), Act: "tick", To: ioa.KeyState("1")},
	}
	classes := []ioa.Class{{Name: "rep", Actions: ioa.NewSet("out", "tick")}}
	table := func(in []ioa.Action) *ioa.Table {
		var own []ioa.Step
		for _, st := range steps {
			if st.Act != "in" || len(in) > 0 {
				own = append(own, st)
			}
		}
		sig := ioa.MustSignature(in, []ioa.Action{"out"}, []ioa.Action{"tick"})
		return ioa.MustTable("rep", sig, []ioa.State{ioa.KeyState("0")}, own, classes)
	}
	for _, tc := range []struct {
		name string
		a    ioa.Automaton
		want []string
	}{
		{"inputs reported", inputReporter{table([]ioa.Action{"in"})}, []string{"in>1", "out>0", "tick>1"}},
		{"no inputs, each twice", doubler{table(nil)}, []string{"out>0", "tick>1"}},
	} {
		walk := ioa.NewWalk(tc.a)
		var got []string
		walk.Visit(ioa.KeyState("1"), func(nxt ioa.State) bool {
			got = append(got, string(walk.Act)+">"+nxt.Key())
			return true
		})
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: walk yields %q, want %q", tc.name, got, tc.want)
		}
	}
}

// rawRebuild is s with every tuple rebuilt by NewTupleState from At:
// the form of a state no composite built — a domain tuple, a reducer's
// representative — whose leaf parts are bare states.
func rawRebuild(s ioa.State) ioa.State {
	ts, ok := s.(*ioa.TupleState)
	if !ok {
		return s
	}
	parts := make([]ioa.State, ts.Len())
	for i := range parts {
		parts[i] = rawRebuild(ts.At(i))
	}
	return ioa.NewTupleState(parts)
}

// stepView is what a stepping automaton makes of s: its encoding, its
// Enabled list and the key of every successor by every action.
func stepView(a ioa.Automaton, s ioa.State) []string {
	view := []string{string(ioa.AppendState(nil, s)), fmt.Sprint(a.Enabled(s))}
	for _, act := range a.Sig().Acts().Sorted() {
		for _, nxt := range ioa.Successors(a, s, act) {
			view = append(view, string(act)+">"+nxt.Key())
		}
	}
	return view
}

// TestCellAndRawPartsAgree: a composite steps and encodes a state the
// same whatever form its leaf parts take — its own cells (a state it
// stepped to), bare states (a raw rebuild), or another composite's
// cells (the outer system's state as the inner A₃ sees it through
// At(0)) — on every reachable state of the closed arbiter3.
func TestCellAndRawPartsAgree(t *testing.T) {
	for _, users := range []int{3, 4} {
		a, states := catalogueReach(t, "arbiter3", users)
		var inner ioa.Automaton = a.(*ioa.Composite).Components()[0]
		for ioa.Wrapped(inner) != nil {
			inner = ioa.Wrapped(inner)
		}
		a3 := inner.(*ioa.Composite)
		for _, s := range states {
			raw := rawRebuild(s)
			if got, want := stepView(a, s), stepView(a, raw); !slices.Equal(got, want) {
				t.Fatalf("arbiter3/%d: state %q in its own cells steps to\n %q\nrebuilt raw to\n %q", users, s.Key(), got, want)
			}
			foreign, bare := s.(*ioa.TupleState).At(0), raw.(*ioa.TupleState).At(0)
			if got, want := stepView(a3, foreign), stepView(a3, bare); !slices.Equal(got, want) {
				t.Fatalf("arbiter3/%d: A₃ steps %q in the outer system's cells to\n %q\nrebuilt raw to\n %q", users, foreign.Key(), got, want)
			}
		}
	}
}

// TestCellsSharedAcrossGoroutines: goroutines stepping, encoding and
// decoding one fresh composite at once create its cells and fill their
// rows concurrently (run it under -race); each sees what the composite
// that reached the states sees, each encodes a state as the others do
// and distinct states distinctly, and each decodes every encoding back
// to its state's key — a racing creation leaves one cell, one index, per
// leaf state, and a leaf's k cells, the key map's and the table's alike,
// are numbered exactly 0, 1, …, k−1.
func TestCellsSharedAcrossGoroutines(t *testing.T) {
	a, states := catalogueReach(t, "arbiter3", 3)
	fresh, err := bench.ExploreSystem(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]string, len(states))
	for i, s := range states {
		want[i] = stepView(a, s)
	}
	encode, decode := ioa.Encoder(fresh), ioa.Decoder(fresh)
	encs := make([][]string, 4)
	var wg sync.WaitGroup
	for g := range encs {
		encs[g] = make([]string, len(states))
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc ioa.Scratch
			for i := range states {
				k := (i + g*len(states)/4) % len(states)
				encs[g][k] = string(encode(nil, states[k]))
				if got := stepView(fresh, states[k]); !slices.Equal(got, want[k]) {
					t.Errorf("goroutine %d: a fresh composite steps %q to %q, want %q", g, states[k].Key(), got, want[k])
					return
				}
				sc.Reset()
				if got := decode(&sc, []byte(encs[g][k])).Key(); got != states[k].Key() {
					t.Errorf("goroutine %d: %q encodes as %x, which decodes to %q", g, states[k].Key(), encs[g][k], got)
					return
				}
			}
		}()
	}
	wg.Wait()
	for g := range encs {
		for k := range states {
			if got := decode(nil, []byte(encs[g][k])).Key(); got != states[k].Key() {
				t.Fatalf("goroutine %d's encoding %x of %q decodes to %q once the goroutines are done", g, encs[g][k], states[k].Key(), got)
			}
		}
	}
	tables, err := ioa.CellIndices(fresh)
	if err != nil {
		t.Fatal(err)
	}
	for l, table := range tables {
		for i, index := range table {
			if index != uint64(i) {
				t.Fatalf("leaf %d: cell %d of %d has index %d: the indices are not 0…%d", l, i, len(table), index, len(table)-1)
			}
		}
	}
	owner := make(map[string]int)
	for k, s := range states {
		for g := range encs {
			if encs[g][k] != encs[0][k] {
				t.Fatalf("state %q encodes as %x on goroutine %d, %x on goroutine 0", s.Key(), encs[g][k], g, encs[0][k])
			}
		}
		if j, ok := owner[encs[0][k]]; ok {
			t.Fatalf("states %q and %q both encode as %x", states[j].Key(), s.Key(), encs[0][k])
		}
		owner[encs[0][k]] = k
	}
}

// ring builds a Prog named name that counts modulo m by its internal
// tick, and also outputs go from every state and listens to in. Its
// effects return states built once, so a step allocates nothing.
func ring(name string, m int) *ioa.Prog {
	states := make([]ioa.State, m)
	next := make(map[string]ioa.State, m)
	for v := range states {
		states[v] = ioa.KeyState(fmt.Sprintf("%s%d", name, v))
	}
	for v, s := range states {
		next[s.Key()] = states[(v+1)%m]
	}
	tick := func(s ioa.State) ioa.State { return next[s.Key()] }
	always := func(ioa.State) bool { return true }
	d := ioa.NewDef(name)
	d.Start(states[0])
	d.Internal(ioa.Act("tick", name), name, always, tick)
	d.Output(ioa.Act("go", name), name, always, func(s ioa.State) ioa.State { return s })
	d.Input(ioa.Act("in", name), func(s ioa.State) ioa.State { return s })
	return d.MustBuild()
}

// TestWalkVisitAllocatesNoEnabledList: once warm, a walk steps a renamed
// Prog and a renamed hidden composition by number — enabled numbers in
// the walk's own buffer, no name list built, renamed or sorted per state
// — so a sweep over every reachable state allocates nothing at all.
func TestWalkVisitAllocatesNoEnabledList(t *testing.T) {
	rename := func(a ioa.Automaton) ioa.Automaton {
		pairs := make(map[ioa.Action]ioa.Action)
		for _, act := range a.Sig().Acts().Sorted() {
			pairs[act] = act + "'"
		}
		return ioa.MustRename(a, ioa.MustMapping(pairs))
	}
	comp := ioa.MustCompose("pair", ring("l", 3), rename(ring("r", 4)))
	for name, a := range map[string]ioa.Automaton{
		"Rename(Prog)":            rename(ring("p", 5)),
		"Rename(Hide(Composite))": rename(ioa.Hide(comp, ioa.NewSet(ioa.Act("go", "l"), ioa.Act("in", "l")))),
	} {
		states, err := explore.New(explore.Options{Workers: 1}).Reach(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		walk := ioa.NewWalk(a)
		successors := 0
		count := func(ioa.State) bool { successors++; return true }
		sweep := func() {
			for _, s := range states {
				walk.Visit(s, count)
			}
		}
		sweep() // warm the memo rows, the scratch chunks and the buffer
		if successors <= len(states) {
			t.Fatalf("%s: %d successors over %d states: too few to tell", name, successors, len(states))
		}
		if n := testing.AllocsPerRun(10, sweep); n != 0 {
			t.Errorf("%s: a sweep of %d states allocates %.0f objects, want 0", name, len(states), n)
		}
	}
}
