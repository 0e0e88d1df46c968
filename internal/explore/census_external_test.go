package explore_test

// The one out-of-core loop on compositions: Census over a spill decodes
// its disk frontier through ioa.Decoder, so every composite has a
// bounded census, and the kernel behind Reach, CheckInvariant, Visit and
// Graph runs in RAM only.

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/obs"
	"repro/internal/reduce"
	"repro/internal/store"
)

// A composite is a composition and the canon it is explored under.
type composite struct {
	name  string
	a     ioa.Automaton
	canon explore.Canonicalizer
}

// externalComposites are the closed arbiter at three to five users and
// the star arbiter at five under its rotation symmetry.
func externalComposites(t *testing.T) []composite {
	t.Helper()
	var systems []composite
	for n := 3; n <= 5; n++ {
		a, err := bench.ExploreSystem(3, n)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, composite{fmt.Sprintf("arbiter3/%d", n), a, nil})
	}
	star, err := bench.StarSystem(5)
	if err != nil {
		t.Fatal(err)
	}
	rot, err := reduce.NewStarRotation(5)
	if err != nil {
		t.Fatal(err)
	}
	return append(systems, composite{"star/5/symmetry", star, rot})
}

// TestExternalCensusOverComposites: on compositions, under a budget
// that forces many runs and at least one compaction, the external
// census reports the in-RAM census's states, depth and deadlocks, and
// visits each state once: ReferenceReach's states as a set, or under a
// symmetry the in-RAM census's orbits.
func TestExternalCensusOverComposites(t *testing.T) {
	ctx := context.Background()
	for _, sys := range externalComposites(t) {
		key := func(s ioa.State) string { return s.Key() }
		if sys.canon != nil {
			key = func(s ioa.State) string { return sys.canon.Canonical(s).Key() }
		}
		want := map[string]int{}
		ram, err := explore.New(explore.Options{Canon: sys.canon}).Census(ctx, sys.a, nil,
			func(s ioa.State) { want[key(s)]++ })
		if err != nil {
			t.Fatalf("%s: in-RAM census: %v", sys.name, err)
		}
		if sys.canon == nil {
			ref, err := explore.ReferenceReach(sys.a, explore.DefaultLimit)
			if err != nil {
				t.Fatal(err)
			}
			want = map[string]int{}
			for _, s := range ref {
				want[s.Key()]++
			}
		}
		o := obs.New(nil)
		got := map[string]int{}
		ext, err := explore.New(explore.Options{Canon: sys.canon, Obs: o,
			Spill: &store.SpillOptions{Dir: t.TempDir(), MemBudget: 512, BlockEvery: 8}}).Census(ctx, sys.a, nil,
			func(s ioa.State) { got[key(s)]++ })
		if err != nil {
			t.Fatalf("%s: external census: %v", sys.name, err)
		}
		if ext != ram || ram.States != int64(len(want)) {
			t.Fatalf("%s: external %+v, in RAM %+v, %d states expected", sys.name, ext, ram, len(want))
		}
		if o.Store.SpillCompactions.Value() == 0 {
			t.Fatalf("%s: no compaction: %d runs", sys.name, o.Store.SpillRuns.Value())
		}
		for k, n := range want {
			if n != 1 || got[k] != 1 {
				t.Fatalf("%s: state %q expected %d times, visited %d times externally", sys.name, k, n, got[k])
			}
		}
		t.Logf("%s: %d states, depth %d, %d runs after %d compactions", sys.name, ext.States, ext.Depth,
			o.Store.SpillRuns.Value(), o.Store.SpillCompactions.Value())
	}
}

// TestExternalCensusViolationAtItsDepth: a predicate false on every
// state where the first user holds the resource is reported, by the
// external census, at a state that breaks it and lies at the least BFS
// depth of any such state — and that state is the caller's to keep.
func TestExternalCensusViolationAtItsDepth(t *testing.T) {
	ctx := context.Background()
	a, err := bench.ExploreSystem(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := explore.ReferenceReach(a, explore.DefaultLimit)
	if err != nil {
		t.Fatal(err)
	}
	depth, _ := bfsDepths(a, ref, func(s ioa.State) string { return s.Key() })
	least := int64(-1)
	for _, s := range ref {
		if d := depth[s.Key()]; firstHolds(s) && (least < 0 || d < least) {
			least = d
		}
	}
	if least <= 0 {
		t.Fatalf("the first user never holds the resource past the start (least depth %d)", least)
	}
	sum, err := explore.New(explore.Options{
		Spill: &store.SpillOptions{Dir: t.TempDir(), MemBudget: 512}}).Census(ctx, a,
		func(s ioa.State) bool { return !firstHolds(s) }, nil)
	v := sum.Violation
	if err != nil || v == nil {
		t.Fatalf("census = (%+v, %v), want a violation", sum, err)
	}
	if !firstHolds(v.State) || depth[v.State.Key()] != least {
		t.Fatalf("violation at depth %d (breaks the invariant: %t), want one at depth %d",
			depth[v.State.Key()], firstHolds(v.State), least)
	}
	if ioa.Keep(v.State) != v.State {
		t.Fatal("the violation's state is borrowed from the census's scratch")
	}
}

// TestSpillBacksOnlyCensus: with Options.Spill set, Census refuses an
// automaton ioa.Decoder cannot rebuild, naming it, before it opens the
// spill directory; and Reach, CheckInvariant, Visit and Graph refuse the
// spill, naming Census.
func TestSpillBacksOnlyCensus(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir() + "/spill"
	eng := explore.New(explore.Options{Spill: &store.SpillOptions{Dir: dir}})
	a := chain(10)
	if _, err := eng.Census(ctx, a, nil, nil); err == nil || !strings.Contains(err.Error(), a.Name()) ||
		!strings.Contains(err.Error(), "no decoder") {
		t.Fatalf("Census over a spill on a Table: %v, want an error naming %s", err, a.Name())
	}
	if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the refused census made its spill directory: %v", err)
	}
	if _, err := eng.Census(ctx, composed(a), nil, nil); err != nil {
		t.Fatalf("Census over a spill on the composed Table: %v", err)
	}
	holds := func(ioa.State) bool { return true }
	for name, call := range map[string]func() error{
		"Reach":          func() error { _, err := eng.Reach(ctx, composed(a)); return err },
		"CheckInvariant": func() error { _, err := eng.CheckInvariant(ctx, composed(a), holds); return err },
		"Visit":          func() error { _, err := eng.Visit(ctx, composed(a), &countVisitor{}); return err },
		"Graph":          func() error { _, err := eng.Graph(ctx, composed(a)); return err },
	} {
		if err := call(); err == nil || !strings.Contains(err.Error(), "Census") {
			t.Errorf("%s over a spill: %v, want a refusal naming Census", name, err)
		}
	}
}

// countVisitor counts what a Visit reports.
type countVisitor struct{ nodes, edges int }

func (v *countVisitor) Admit(int, int, ioa.State) { v.nodes++ }
func (v *countVisitor) Edge(int, int32, int)      { v.edges++ }
func (v *countVisitor) Expanded(int)              {}

// TestExternalCensusKeepsNoStates: when the external census of the
// closed arbiter at five users visits its last state, at most 0.1 heap
// objects a state are alive beyond those alive before it started — its
// runs' filters and indexes, no state. A census that kept a heap tuple
// of each state it expanded would read about four.
func TestExternalCensusKeepsNoStates(t *testing.T) {
	ioa.SetScratchPoison(false) // a poisoned scratch abandons its memory on every Reset
	defer ioa.SetScratchPoison(true)
	ctx := context.Background()
	a, err := bench.ExploreSystem(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	ram, err := explore.New(explore.Options{}).Census(ctx, a, nil, nil) // fills the cells and memo rows
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	visited := int64(0)
	runtime.GC()
	runtime.ReadMemStats(&before)
	sum, err := explore.New(explore.Options{
		Spill: &store.SpillOptions{Dir: t.TempDir(), MemBudget: 4 << 10}}).Census(ctx, a, nil, func(ioa.State) {
		if visited++; visited == ram.States {
			runtime.GC()
			runtime.ReadMemStats(&after)
		}
	})
	if err != nil || sum != ram {
		t.Fatalf("external census %+v (%v), in RAM %+v", sum, err, ram)
	}
	live := (float64(after.HeapObjects) - float64(before.HeapObjects)) / float64(sum.States)
	t.Logf("%.3f objects a state alive at the last visit", live)
	if live > 0.1 {
		t.Fatalf("%.3f objects a state are alive at the last visit of the external census, want at most 0.1", live)
	}
}

// refusing is a Decodable whose Decode refuses the encoding of one of
// its own reachable states, bad, as a damaged frontier record would
// read: every other state decodes from its Key bytes.
type refusing struct {
	ioa.Automaton
	bad string
}

func (r refusing) Decode(enc []byte) (ioa.State, error) {
	if string(enc) == r.bad {
		return nil, fmt.Errorf("record %q refused", enc)
	}
	return ioa.KeyState(enc), nil
}

// TestExternalCensusReportsUndecodableRecord: a frontier record that
// ioa.Decoder cannot rebuild ends the external census with an error
// naming the automaton and the depth of the state it encodes, not a
// panic; the in-RAM kernel panics on it. The counter steps 0 → 1 → … → 9 and refuses "4", at depth 4.
func TestExternalCensusReportsUndecodableRecord(t *testing.T) {
	d := ioa.NewDef("line10")
	d.Start(ioa.KeyState("0"))
	d.Internal("inc", "line", func(s ioa.State) bool { return s.Key() != "9" },
		func(s ioa.State) ioa.State { return ioa.KeyState(string('1' + s.Key()[0] - '0')) })
	a := refusing{d.MustBuild(), "4"}
	_, err := explore.New(explore.Options{Spill: &store.SpillOptions{Dir: t.TempDir(), MemBudget: 64}}).Census(context.Background(), a, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "line10") || !strings.Contains(err.Error(), "depth 4") {
		t.Fatalf("census over a refused record returned %v; want an error naming line10 and depth 4", err)
	}
	// The in-RAM kernel decodes only encodings it interned itself, so a
	// refusal there is a program fault: it panics, naming the automaton.
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "line10") {
			t.Fatalf("Reach over a refused encoding recovered %v; want a panic naming line10", r)
		}
	}()
	explore.New(explore.Options{}).Reach(context.Background(), a)
	t.Fatal("Reach over a refused encoding returned")
}
