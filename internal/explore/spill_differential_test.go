package explore_test

// Spill-backed exploration differential battery (ISSUE 10): the
// disk-spilling SeenSet must be observationally identical to the
// in-RAM arena. Every test here runs with a MemBudget small enough to
// force multiple on-disk runs, so merge-on-lookup and batch
// merge-intern paths are genuinely exercised:
//
//   - sequential Reach over a Spill reproduces ReferenceReach
//     elementwise;
//   - Reach over a Spill at workers {1,2,8} reproduces the RAM-backed
//     engine bit-identically (and hence the sequential
//     BFS order);
//   - Census in external mode (Spill + Decode) agrees with the
//     materialized walk on states, depth, deadlocks, and verdicts;
//   - a run file truncated mid-walk surfaces a clean wrapped
//     store.ErrCorruptRun from the engine, and a ledger journaling
//     that run still parses to a usable prefix.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/grid"
	"repro/internal/ioa"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/testseed"
)

// tinySpill returns SpillOptions that flush the hot batch every few
// states, so even the small battery systems end up with many runs.
func tinySpill(t *testing.T) *store.SpillOptions {
	t.Helper()
	return &store.SpillOptions{Dir: t.TempDir(), MemBudget: 256, BlockEvery: 4}
}

// TestDifferentialSpillReachSequential: the sequential engine over the
// disk-spilling store visits states in exactly ReferenceReach's order.
func TestDifferentialSpillReachSequential(t *testing.T) {
	ctx := context.Background()
	for name, a := range diffSystems(t) {
		want, err := explore.ReferenceReach(a, explore.DefaultLimit)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		got, err := explore.New(explore.Options{Workers: 1, Spill: tinySpill(t)}).Reach(ctx, a)
		if err != nil {
			t.Fatalf("%s: spill engine: %v", name, err)
		}
		assertSameOrder(t, name, want, got)
	}
}

// TestDifferentialSpillReachParallel: at workers {1,2,8} the parallel
// engine over the disk-spilling store is bit-identical to the
// RAM-backed engine at the same worker count.
func TestDifferentialSpillReachParallel(t *testing.T) {
	for name, a := range diffSystems(t) {
		for _, w := range []int{1, 2, 8} {
			ram, err := parallelReach(a, explore.Options{Workers: w})
			if err != nil {
				t.Fatalf("%s workers %d: ram: %v", name, w, err)
			}
			spill, err := parallelReach(a, explore.Options{Workers: w, Spill: tinySpill(t)})
			if err != nil {
				t.Fatalf("%s workers %d: spill: %v", name, w, err)
			}
			assertSameOrder(t, fmt.Sprintf("%s workers %d ram vs spill", name, w), ram, spill)
		}
	}
}

// keyDecode rebuilds a KeyState from its canonical encoding — the
// Decode hook for Table-backed systems, whose states are identified by
// key.
func keyDecode(enc []byte) (ioa.State, error) { return ioa.KeyState(enc), nil }

// censusSystems: Table-backed systems (KeyState states) so external
// Census can round-trip encodings through keyDecode.
func censusSystems(t *testing.T) map[string]ioa.Automaton {
	t.Helper()
	base := testseed.Base(t)
	systems := map[string]ioa.Automaton{"chain40": chain(40)}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(base + 1700 + seed))
		systems[fmt.Sprintf("table%d", seed)] = randTable(rng, fmt.Sprintf("t%d", seed),
			nil, []ioa.Action{"a", "b"}, []ioa.Action{"c"})
	}
	return systems
}

// TestDifferentialCensusExternal: the external-memory Census agrees
// with the materialized walk on every summary field, and its visit
// stream covers exactly the reachable set.
func TestDifferentialCensusExternal(t *testing.T) {
	ctx := context.Background()
	for name, a := range censusSystems(t) {
		var ramSum, extSum explore.Summary
		var err error
		ramSum, err = explore.New(explore.Options{Workers: 1}).Census(ctx, a, nil, nil)
		if err != nil {
			t.Fatalf("%s: materialized census: %v", name, err)
		}
		visited := make(map[string]int)
		extSum, err = explore.New(explore.Options{
			Workers: 1,
			Spill:   tinySpill(t),
			Decode:  keyDecode,
		}).Census(ctx, a, nil, func(s ioa.State) { visited[s.Key()]++ })
		if err != nil {
			t.Fatalf("%s: external census: %v", name, err)
		}
		if ramSum != extSum {
			t.Fatalf("%s: summaries differ: external %+v, materialized %+v", name, extSum, ramSum)
		}
		ref, err := explore.ReferenceReach(a, explore.DefaultLimit)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if len(visited) != len(ref) {
			t.Fatalf("%s: visited %d distinct states, want %d", name, len(visited), len(ref))
		}
		for _, s := range ref {
			if visited[s.Key()] != 1 {
				t.Fatalf("%s: state %q visited %d times, want exactly once", name, s.Key(), visited[s.Key()])
			}
		}
	}
}

// TestDifferentialCensusVerdicts: predicate verdicts agree between the
// external and materialized walks (the external violation carries no
// witness trace, only the state).
func TestDifferentialCensusVerdicts(t *testing.T) {
	ctx := context.Background()
	base := testseed.Base(t)
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(base + 2100 + seed))
		a := randTable(rng, fmt.Sprintf("v%d", seed), nil, []ioa.Action{"a", "b"}, []ioa.Action{"c"})
		bad := fmt.Sprintf("v%d%d", seed, rng.Intn(4))
		pred := func(s ioa.State) bool { return s.Key() != bad }

		ramSum, err := explore.New(explore.Options{Workers: 1}).Census(ctx, a, pred, nil)
		if err != nil {
			t.Fatalf("seed %d: materialized: %v", seed, err)
		}
		extSum, err := explore.New(explore.Options{
			Workers: 1, Spill: tinySpill(t), Decode: keyDecode,
		}).Census(ctx, a, pred, nil)
		if err != nil {
			t.Fatalf("seed %d: external: %v", seed, err)
		}
		if (ramSum.Violation == nil) != (extSum.Violation == nil) {
			t.Fatalf("seed %d: verdicts differ: external %+v, materialized %+v", seed, extSum.Violation, ramSum.Violation)
		}
		if ramSum.Violation != nil && extSum.Violation.State.Key() != ramSum.Violation.State.Key() {
			t.Fatalf("seed %d: violating states differ: %q vs %q",
				seed, extSum.Violation.State.Key(), ramSum.Violation.State.Key())
		}
	}
}

// TestDifferentialCensusLimit: the external Census honors Limit with a
// wrapped ErrLimit, like every other engine entry point.
func TestDifferentialCensusLimit(t *testing.T) {
	ctx := context.Background()
	a := chain(40)
	sum, err := explore.New(explore.Options{
		Workers: 1, Limit: 7, Spill: tinySpill(t), Decode: keyDecode,
	}).Census(ctx, a, nil, nil)
	if !errors.Is(err, explore.ErrLimit) {
		t.Fatalf("err = %v, want ErrLimit", err)
	}
	if sum.States != 7 {
		t.Fatalf("partial summary States = %d, want 7", sum.States)
	}
}

// loopChain is chain(n) plus a back edge b: ci → c(i-1) and a reset
// r: ci → c0. The back edges make every level re-probe keys that have
// already been flushed to disk — including the last key of the newest
// run, whose block a tail truncation corrupts — so a damaged run is
// actually read, not just bloom-skipped.
func loopChain(n int) *ioa.Table {
	sig := ioa.MustSignature(nil, nil, []ioa.Action{"t", "b", "r"})
	states := make([]ioa.State, n)
	for i := range states {
		states[i] = ioa.KeyState(fmt.Sprintf("c%03d", i))
	}
	var steps []ioa.Step
	for i := 0; i < n; i++ {
		if i+1 < n {
			steps = append(steps, ioa.Step{From: states[i], Act: "t", To: states[i+1]})
		}
		if i > 0 {
			steps = append(steps, ioa.Step{From: states[i], Act: "b", To: states[i-1]})
		}
		steps = append(steps, ioa.Step{From: states[i], Act: "r", To: states[0]})
	}
	classes := []ioa.Class{{Name: "all", Actions: ioa.NewSet("t", "b", "r")}}
	return ioa.MustTable("loopchain", sig, states[:1], steps, classes)
}

// TestSpillCrashMidWalkSurfacesCleanError: truncating a run file while
// the engine is mid-walk must surface as a wrapped store.ErrCorruptRun
// from Reach — not a panic, not a silent wrong answer — and a ledger
// journaling the run's progress still parses to a usable prefix.
func TestSpillCrashMidWalkSurfacesCleanError(t *testing.T) {
	ctx := context.Background()
	var journal bytes.Buffer
	led := ledger.New(&journal, ledger.Options{MinInterval: -1})
	if err := led.Record(ledger.Run{Tool: "test", Mode: "reach", System: "loopchain", Verdict: "started"}); err != nil {
		t.Fatalf("Record: %v", err)
	}
	o := obs.New(nil)
	o.Progress = led.OnProgress

	sp := tinySpill(t)
	var truncated bool
	sp.AfterFlush = func(path string) {
		if truncated {
			return
		}
		truncated = true
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("stat flushed run: %v", err)
		}
		if err := os.Truncate(path, fi.Size()-5); err != nil {
			t.Fatalf("truncate flushed run: %v", err)
		}
	}
	a := loopChain(200)
	_, err := explore.New(explore.Options{Workers: 1, Spill: sp, Obs: o}).Reach(ctx, a)
	if !errors.Is(err, store.ErrCorruptRun) {
		t.Fatalf("err = %v, want wrapped store.ErrCorruptRun", err)
	}
	if !strings.Contains(err.Error(), "storage:") {
		t.Fatalf("error not engine-wrapped: %v", err)
	}
	if !truncated {
		t.Fatal("AfterFlush never fired: walk too small to spill")
	}

	// The journal written up to the crash is a usable prefix.
	if perr := led.Err(); perr != nil {
		t.Fatalf("ledger write error: %v", perr)
	}
	entries, perr := ledger.Parse(&journal)
	if perr != nil {
		t.Fatalf("Parse after crash: %v", perr)
	}
	if len(entries) == 0 {
		t.Fatal("no journal entries before the crash")
	}
	for _, e := range entries {
		if e.Schema != ledger.Schema {
			t.Fatalf("entry %d: schema %d", e.Seq, e.Schema)
		}
	}
}

// TestSpillCrashMidCensus: the external-memory walk surfaces the same
// clean wrapped error when a run goes bad under it.
// TestVisitCrashReportsNoDanglingEdge: once the spill store latches an
// error mid-walk, Visit stops at the next successor and returns the
// storage error; no edge into a node the store never admitted reaches
// the visitor.
func TestVisitCrashReportsNoDanglingEdge(t *testing.T) {
	sp := tinySpill(t)
	var truncated bool
	sp.AfterFlush = func(path string) {
		if truncated {
			return
		}
		truncated = true
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("stat flushed run: %v", err)
		}
		if err := os.Truncate(path, fi.Size()-5); err != nil {
			t.Fatalf("truncate flushed run: %v", err)
		}
	}
	v := &edgeBounds{t: t}
	_, err := explore.New(explore.Options{Workers: 1, Spill: sp}).Visit(context.Background(), loopChain(200), v)
	if !errors.Is(err, store.ErrCorruptRun) || !strings.Contains(err.Error(), "storage:") {
		t.Fatalf("err = %v, want the engine-wrapped store.ErrCorruptRun", err)
	}
	if !truncated || v.edges == 0 {
		t.Fatalf("truncated %v after %d edges: walk too small to spill", truncated, v.edges)
	}
}

// edgeBounds fails its test on an edge whose ends were never admitted.
type edgeBounds struct {
	t            *testing.T
	nodes, edges int
}

func (v *edgeBounds) Admit(int, int, ioa.State) { v.nodes++ }
func (v *edgeBounds) Expanded(int)              {}
func (v *edgeBounds) Edge(from int, act int32, to int) {
	v.edges++
	if from < 0 || from >= v.nodes || to < 0 || to >= v.nodes {
		v.t.Fatalf("edge (%d, action %d, %d) with %d nodes admitted", from, act, to, v.nodes)
	}
}

func TestSpillCrashMidCensus(t *testing.T) {
	ctx := context.Background()
	sp := tinySpill(t)
	var truncated bool
	sp.AfterFlush = func(path string) {
		if truncated {
			return
		}
		truncated = true
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("stat flushed run: %v", err)
		}
		if err := os.Truncate(path, fi.Size()-5); err != nil {
			t.Fatalf("truncate flushed run: %v", err)
		}
	}
	_, err := explore.New(explore.Options{
		Workers: 1, Spill: sp, Decode: keyDecode,
	}).Census(ctx, chain(200), nil, nil)
	if !errors.Is(err, store.ErrCorruptRun) {
		t.Fatalf("err = %v, want wrapped store.ErrCorruptRun", err)
	}
}

// TestCensusChunksHoldDistinctEncodings: the external census's chunk
// deduplicates on arrival, so MemBudget buys distinct encodings and the
// walk leaves about one run per level's last chunk plus one per budget
// of distinct bytes. The bound is exact while no encoding is offered to
// two chunks of one level; the budget here is half the widest level, so
// chunks do fill and such repeats stay few. (While a chunk kept every
// successor — four in five are duplicates on a grid — the same walk left
// 85 runs against this bound of 45.)
func TestCensusChunksHoldDistinctEncodings(t *testing.T) {
	ctx := context.Background()
	g, err := grid.New(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	ramSum, err := explore.New(explore.Options{Workers: 1}).Census(ctx, g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 2 << 10
	o := obs.New(nil)
	var distinctBytes int64
	extSum, err := explore.New(explore.Options{
		Workers: 1, Obs: o, Decode: g.Decode,
		Spill: &store.SpillOptions{Dir: t.TempDir(), MemBudget: budget},
	}).Census(ctx, g, nil, func(s ioa.State) { distinctBytes += int64(len(s.Key())) })
	if err != nil {
		t.Fatal(err)
	}
	if extSum != ramSum || extSum.States != g.States() {
		t.Fatalf("external %+v, materialized %+v, closed form %d states", extSum, ramSum, g.States())
	}
	levels := extSum.Depth + 1
	bound := levels + (distinctBytes+budget-1)/budget
	if runs := o.Store.SpillRuns.Value(); runs > bound {
		t.Fatalf("%d runs for %d levels and %d distinct bytes under a %d-byte budget, want at most %d",
			runs, levels, distinctBytes, budget, bound)
	} else {
		t.Logf("%d runs, bound %d", runs, bound)
	}
}

// spillTier is store's size tier of a run of n bytes, ⌊log₄ n⌋.
func spillTier(n int64) int {
	t := 0
	for ; n >= 4; n /= 4 {
		t++
	}
	return t
}

// TestCensusSpillRunsBounded: tiered compaction leaves the external
// census fewer than four runs a size tier — the walk of
// TestCensusChunksHoldDistinctEncodings, which left about forty — and
// the directory the live runs only, with no half-written merge, each
// time a run is registered.
func TestCensusSpillRunsBounded(t *testing.T) {
	g, err := grid.New(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	o := obs.New(nil)
	mostFiles := 0
	sum, err := explore.New(explore.Options{
		Workers: 1, Obs: o, Decode: g.Decode,
		Spill: &store.SpillOptions{Dir: dir, MemBudget: 2 << 10, AfterFlush: func(string) {
			files, err := filepath.Glob(filepath.Join(dir, "run*"))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				if !strings.HasSuffix(f, ".spill") {
					t.Errorf("%s left in the spill directory", f)
				}
			}
			mostFiles = max(mostFiles, len(files))
		}},
	}).Census(context.Background(), g, nil, nil)
	if err != nil || sum.States != g.States() || sum.Deadlocks != 1 {
		t.Fatalf("census %+v, %v", sum, err)
	}
	// No run is larger than all of them together, so their total bounds
	// the tiers in use. While a merge is being registered its inputs are
	// already gone, so the directory never holds more than the bound plus
	// the run that triggers a merge.
	runs, bound := o.Store.SpillRuns.Value(), int64(3*(spillTier(o.Store.SpilledBytes.Value())+1))
	if runs > bound || int64(mostFiles) > bound+1 || o.Store.SpillCompactions.Value() == 0 {
		t.Fatalf("%d runs (%d files at most) after %d compactions, bound %d", runs, mostFiles, o.Store.SpillCompactions.Value(), bound)
	}
	t.Logf("%d runs, %d files at most, %d compactions, %d entries decoded, %d bytes resident",
		runs, mostFiles, o.Store.SpillCompactions.Value(),
		o.Store.SpillEntriesDecoded.Value(), o.Store.SpillResidentBytes.Value())
}

// TestCensusCompactedRunFaultsNeverMiscount damages the n-th compacted
// run of an external census as it is registered (AfterFlush reports a
// path for the second time when a merged run takes it over) — cut
// mid-record, a bit flipped in its first block, its header rewritten —
// and requires of every schedule a wrapped store.ErrCorruptRun or the
// closed-form count: never a census that finished on another number. The
// inputs of the damaged run are unlinked by then; nothing can fall back
// on them.
func TestCensusCompactedRunFaultsNeverMiscount(t *testing.T) {
	g, err := grid.New(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	faults := map[string]func(path string) error{
		"truncate": func(path string) error {
			fi, err := os.Stat(path)
			if err != nil {
				return err
			}
			return os.Truncate(path, fi.Size()-5)
		},
		"flip":   func(path string) error { return writeAt(path, 8, []byte{0x80}) }, // the first block's shared-prefix byte
		"header": func(path string) error { return writeAt(path, 0, []byte("IOSPILL0")) },
	}
	// walk runs the census, damaging the nth compacted run (none for 0),
	// and reports how many compacted runs were registered.
	walk := func(nth int, fault func(string) error) (explore.Summary, int, error) {
		seen, compacted := map[string]bool{}, 0
		sum, err := explore.New(explore.Options{
			Workers: 1, Decode: g.Decode,
			Spill: &store.SpillOptions{Dir: t.TempDir(), MemBudget: 256, BlockEvery: 4, AfterFlush: func(path string) {
				if seen[path] {
					if compacted++; compacted == nth {
						if err := fault(path); err != nil {
							t.Fatal(err)
						}
					}
				}
				seen[path] = true
			}},
		}).Census(context.Background(), g, nil, nil)
		return sum, compacted, err
	}
	closedForm := func(sum explore.Summary) bool {
		return sum.States == g.States() && sum.Depth == g.Depth() && sum.Deadlocks == 1
	}
	sum, compactions, err := walk(0, nil)
	if err != nil || !closedForm(sum) || compactions < 3 {
		t.Fatalf("undamaged walk: %+v after %d compactions, %v", sum, compactions, err)
	}
	refused := 0
	for name, fault := range faults {
		for nth := 1; nth <= compactions; nth++ {
			sum, _, err := walk(nth, fault)
			if errors.Is(err, store.ErrCorruptRun) {
				refused++
			} else if err != nil || !closedForm(sum) {
				t.Fatalf("%s in compacted run %d: census %+v, %v; closed form is %d states", name, nth, sum, err, g.States())
			}
		}
	}
	if walks := len(faults) * compactions; refused < walks/2 {
		t.Fatalf("only %d of %d damaged walks were refused", refused, walks)
	} else {
		t.Logf("%d of %d damaged walks refused", refused, walks)
	}
}

func writeAt(path string, off int64, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteAt(b, off)
	return err
}
