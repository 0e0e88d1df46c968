package proof_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/arbiter/mapping"
	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/ioa"
	"repro/internal/obs"
	"repro/internal/proof"
	"repro/internal/testseed"
)

// batteryWorkers are the worker counts every differential arm runs at:
// the sequential engine, the benchmark's count, and more workers than
// most fixtures have chunks.
var batteryWorkers = []int{1, 2, 8}

// agree runs the kernel and the reference loop under the same options
// at every battery worker count and requires the same verdict, byte for
// byte. It returns the (common) error at the last worker count.
func agree(t *testing.T, name string, h *proof.PossMapping, opts explore.Options) error {
	t.Helper()
	var got error
	for _, w := range batteryWorkers {
		opts.Workers = w
		want := proof.ReferenceVerify(h, opts)
		got = h.VerifyOpts(opts)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("%s, workers=%d: kernel and reference disagree\n  kernel:    %v\n  reference: %v", name, w, got, want)
		}
		for _, target := range []error{proof.ErrNotPossibilities, explore.ErrLimit} {
			if errors.Is(got, target) != errors.Is(want, target) {
				t.Fatalf("%s, workers=%d: errors.Is(%v) differs", name, w, target)
			}
		}
	}
	return got
}

func ks(format string, args ...any) ioa.State { return ioa.KeyState(fmt.Sprintf(format, args...)) }

// line is the 2(b) fixture: n states joined by the internal action tau
// (i → i+1), fire a self-loop everywhere. Its abstraction dot is one
// state with the fire self-loop, so tau lies outside acts(B) and every
// tau step must preserve the possibility. Reach visits state i at
// position i, at any worker count.
func line(n int) (a, b *ioa.Table) {
	sigA := ioa.MustSignature(nil, []ioa.Action{"fire"}, []ioa.Action{"tau"})
	var steps []ioa.Step
	for i := 0; i < n; i++ {
		steps = append(steps, ioa.Step{From: ks("%04d", i), Act: "fire", To: ks("%04d", i)})
		if i+1 < n {
			steps = append(steps, ioa.Step{From: ks("%04d", i), Act: "tau", To: ks("%04d", i+1)})
		}
	}
	a = ioa.MustTable("line", sigA, []ioa.State{ks("%04d", 0)}, steps,
		[]ioa.Class{{Name: "c", Actions: ioa.NewSet("fire", "tau")}})
	sigB := ioa.MustSignature(nil, []ioa.Action{"fire"}, nil)
	b = ioa.MustTable("dot", sigB, []ioa.State{ks("dot")},
		[]ioa.Step{{From: ks("dot"), Act: "fire", To: ks("dot")}},
		[]ioa.Class{{Name: "c", Actions: ioa.NewSet("fire")}})
	return a, b
}

// counter is the mod-n counter of mapping_proof_test.go: tick an input,
// fire an output enabled at the states in fireAt.
func counter(name string, n int, fireAt ...int) *ioa.Table {
	sig := ioa.MustSignature([]ioa.Action{"tick"}, []ioa.Action{"fire"}, nil)
	var steps []ioa.Step
	for i := 0; i < n; i++ {
		steps = append(steps, ioa.Step{From: ks("%d", i), Act: "tick", To: ks("%d", (i+1)%n)})
	}
	for _, i := range fireAt {
		steps = append(steps, ioa.Step{From: ks("%d", i), Act: "fire", To: ks("%d", i)})
	}
	return ioa.MustTable(name, sig, []ioa.State{ks("0")}, steps,
		[]ioa.Class{{Name: "c", Actions: ioa.NewSet("fire")}})
}

func parity(s ioa.State) int { return int(s.Key()[len(s.Key())-1]-'0') % 2 }

func chainAt(t *testing.T, users, holder int) *mapping.Chain {
	t.Helper()
	tr, err := graph.BinaryTree(users)
	if err != nil {
		t.Fatal(err)
	}
	arbiters := tr.NodesOf(graph.Arbiter)
	c, err := mapping.NewChain(tr, arbiters[holder%len(arbiters)])
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestKernelAgreesOnArbiterChain: both links of the three-user
// hierarchy, either holder, certify under the kernel as under the loop
// it replaced — and a constant map is refused with the same step named.
func TestKernelAgreesOnArbiterChain(t *testing.T) {
	for holder := 0; holder < 2; holder++ {
		c := chainAt(t, 3, holder)
		for name, h := range map[string]*proof.PossMapping{"h2": c.H2, "h1": c.H1} {
			if err := agree(t, fmt.Sprintf("%s holder=%d", name, holder), h, explore.Options{}); err != nil {
				t.Errorf("%s holder=%d: %v", name, holder, err)
			}
		}
		// 2(a): every state of f₁(A₂) mapped to the start state of A₁.
		constant := &proof.PossMapping{A: c.A2r, B: c.A1, Map: func(ioa.State) []ioa.State { return c.A1.Start() }}
		err := agree(t, fmt.Sprintf("constant map holder=%d", holder), constant, explore.Options{})
		if !errors.Is(err, proof.ErrNotPossibilities) || !strings.Contains(err.Error(), "no matching step") {
			t.Errorf("constant map holder=%d: want a 2(a) refusal, got %v", holder, err)
		}
		// ErrLimit from Reach(B) and from Reach(A) passes through.
		for _, limit := range []int{5, 40} {
			err := agree(t, fmt.Sprintf("limit=%d holder=%d", limit, holder), c.H1, explore.Options{Limit: limit})
			if !errors.Is(err, explore.ErrLimit) {
				t.Errorf("limit=%d holder=%d: want ErrLimit, got %v", limit, holder, err)
			}
		}
	}
}

// TestKernelAgreesOnCounters: the hand-checkable fixtures — a parity
// map that verifies, the constant map (2a), a bad start possibility
// (condition 1), and a signature mismatch.
func TestKernelAgreesOnCounters(t *testing.T) {
	mod4, mod2 := counter("mod4", 4, 0, 2), counter("mod2", 2, 0)
	byParity := func(s ioa.State) []ioa.State { return []ioa.State{ks("%d", parity(s))} }
	if err := agree(t, "parity", &proof.PossMapping{A: mod4, B: mod2, Map: byParity}, explore.Options{}); err != nil {
		t.Errorf("parity map: %v", err)
	}
	constant := func(ioa.State) []ioa.State { return []ioa.State{ks("0")} }
	if err := agree(t, "constant", &proof.PossMapping{A: counter("mod4b", 4, 0), B: mod2, Map: constant}, explore.Options{}); !errors.Is(err, proof.ErrNotPossibilities) {
		t.Errorf("constant map: want ErrNotPossibilities, got %v", err)
	}
	badStart := func(s ioa.State) []ioa.State { return []ioa.State{ks("%d", 1-parity(s))} }
	err := agree(t, "bad start", &proof.PossMapping{A: mod4, B: mod2, Map: badStart}, explore.Options{})
	if !errors.Is(err, proof.ErrNotPossibilities) || !strings.Contains(err.Error(), "no start-state possibility") {
		t.Errorf("bad start: want a condition-1 refusal, got %v", err)
	}
	_, dot := line(1)
	if err := agree(t, "signature", &proof.PossMapping{A: mod4, B: dot, Map: constant}, explore.Options{}); !errors.Is(err, proof.ErrNotPossibilities) {
		t.Errorf("signature mismatch: want ErrNotPossibilities, got %v", err)
	}
}

// TestKernelFirstFailureIsCanonical plants failures at seeded positions
// of a fixture several chunks long: one in the last chunk, then one in
// the first as well. At every worker count the error names the step
// into the least planted position, as the sequential loop's does.
func TestKernelFirstFailureIsCanonical(t *testing.T) {
	const n = 300 // positions 0..299: five chunks of 64
	a, b := line(n)
	rng := testseed.Rand(t, 17)
	early, late := 1+rng.Intn(63), 256+rng.Intn(n-256)
	dropAt := func(drop ...int) *proof.PossMapping {
		return &proof.PossMapping{A: a, B: b, Map: func(s ioa.State) []ioa.State {
			for _, k := range drop {
				if s.Key() == ks("%04d", k).Key() {
					return nil // the possibility is dropped on the tau step into k
				}
			}
			return []ioa.State{ks("dot")}
		}}
	}
	if err := agree(t, "nothing planted", dropAt(), explore.Options{}); err != nil {
		t.Fatalf("line fixture should verify: %v", err)
	}
	for _, arm := range []struct {
		drop []int
		want int
	}{{[]int{late}, late}, {[]int{late, early}, early}} {
		err := agree(t, fmt.Sprintf("planted at %v", arm.drop), dropAt(arm.drop...), explore.Options{})
		step := fmt.Sprintf(`step ("%04d", tau, "%04d")`, arm.want-1, arm.want)
		if err == nil || !strings.Contains(err.Error(), step) || !strings.Contains(err.Error(), "not preserved") {
			t.Errorf("planted at %v: want the 2(b) failure at %s, got %v", arm.drop, step, err)
		}
	}
	// A budget below the fixture: ErrLimit from Reach(A), untouched.
	if err := agree(t, "limit", dropAt(early), explore.Options{Limit: n / 2}); !errors.Is(err, explore.ErrLimit) {
		t.Errorf("limit %d: want ErrLimit, got %v", n/2, err)
	}
}

// TestKernelMixedPossibilities: a multi-valued map whose rows mix
// possibilities inside and outside Reach(B). The unreachable ones are
// skipped as sources and never match as targets; a seeded row left
// with only unreachable possibilities fails 2(a) on the step into it.
func TestKernelMixedPossibilities(t *testing.T) {
	const n = 200
	a, b := counter("mod200", n, 0, 2, 4), counter("mod2", 2, 0)
	ghost := ks("ghost")
	hole := 1 + testseed.Rand(t, 23).Intn(n-1)
	mixed := func(hole int) *proof.PossMapping {
		return &proof.PossMapping{A: a, B: b, Map: func(s ioa.State) []ioa.State {
			if s.Key() == ks("%d", hole).Key() {
				return []ioa.State{ghost, ks("also unreachable")}
			}
			return []ioa.State{ghost, ks("%d", parity(s)), ks("also unreachable")}
		}}
	}
	if err := agree(t, "mixed", mixed(-1), explore.Options{}); err != nil {
		t.Errorf("mixed map: %v", err)
	}
	err := agree(t, fmt.Sprintf("hole at %d", hole), mixed(hole), explore.Options{})
	step := fmt.Sprintf(`step ("%d", tick, "%d")`, hole-1, hole)
	if err == nil || !strings.Contains(err.Error(), step) || !strings.Contains(err.Error(), "no matching step") {
		t.Errorf("hole at %d: want the 2(a) failure at %s, got %v", hole, step, err)
	}
}

// halfTurn quotients the mod-4 counter (fire at 0 and 2) by its
// rotation by two; on the mod-2 counter it is the identity.
type halfTurn struct{}

func (halfTurn) Name() string                    { return "half-turn" }
func (halfTurn) Canonical(s ioa.State) ioa.State { return ks("%d", parity(s)) }

// TestCanonRefused: every check of this package that explores refuses
// a canonicalizer by name, before it explores or calls Map — a verdict
// over one representative per orbit would be a verdict about nothing
// this package can state. The mod-4 counter maps onto the mod-2 one by
// parity, so each check passes without the canonicalizer.
func TestCanonRefused(t *testing.T) {
	calls := 0
	h := &proof.PossMapping{A: counter("mod4", 4, 0, 2), B: counter("mod2", 2, 0), Map: func(s ioa.State) []ioa.State {
		calls++
		return []ioa.State{ks("%d", parity(s))}
	}}
	never := func(ioa.State) bool { return false }
	none := func(ioa.Action) bool { return false }
	for name, check := range map[string]func(*proof.PossMapping, explore.Options) error{
		"VerifyOpts":                  (*proof.PossMapping).VerifyOpts,
		"FairSatisfiesViaMappingOpts": proof.FairSatisfiesViaMappingOpts,
		"SatisfactionChainOpts": func(h *proof.PossMapping, o explore.Options) error {
			return proof.SatisfactionChainOpts(o, h)
		},
		"TransferDownOpts": func(h *proof.PossMapping, o explore.Options) error {
			return h.TransferDownOpts(o, never, none, never, none)
		},
	} {
		if err := check(h, explore.Options{}); err != nil {
			t.Errorf("%s without a canonicalizer: %v", name, err)
		}
		before := calls
		err := check(h, explore.Options{Canon: halfTurn{}})
		if err == nil || !strings.Contains(err.Error(), "Options.Canon (half-turn)") || errors.Is(err, proof.ErrNotPossibilities) {
			t.Errorf("%s under a canonicalizer: %v; want a refusal naming Options.Canon", name, err)
		}
		if calls != before {
			t.Errorf("%s called Map %d times before refusing the canonicalizer", name, calls-before)
		}
	}
}

// liar is an automaton whose tick grows a successor once *lie is set:
// what a Next that reads state outside its arguments looks like to a
// check that has already explored it.
type liar struct {
	ioa.Automaton
	lie *bool
}

func (l liar) Next(sc *ioa.Scratch, s ioa.State, act ioa.Action, yield func(ioa.State) bool) bool {
	if *l.lie && act == "tick" && !yield(ks("ghost")) { // first, or a match ends the walk before it
		return false
	}
	return l.Automaton.Next(sc, s, act, yield)
}

// TestStepOutsideReachIsInternalError: a successor the completed Reach
// does not hold — on either side — is reported as an internal error
// naming the step, never checked some other way and never a verdict
// about the mapping. The lie starts at the second Map call, which
// follows both explorations.
func TestStepOutsideReachIsInternalError(t *testing.T) {
	for _, side := range []string{"mod4", "mod2"} {
		for _, w := range batteryWorkers {
			lie, calls := false, 0
			a, b := ioa.Automaton(counter("mod4", 4, 0, 2)), ioa.Automaton(counter("mod2", 2, 0))
			if side == "mod4" {
				a = liar{a, &lie}
			} else {
				b = liar{b, &lie}
			}
			h := &proof.PossMapping{A: a, B: b, Map: func(s ioa.State) []ioa.State {
				calls++
				lie = calls >= 2
				return []ioa.State{ks("%d", parity(s))}
			}}
			err := h.VerifyOpts(explore.Options{Workers: w})
			if err == nil || errors.Is(err, proof.ErrNotPossibilities) ||
				!strings.Contains(err.Error(), "internal error") || !strings.Contains(err.Error(), `"ghost") of `+side) {
				t.Errorf("%s lying, workers=%d: %v; want the internal error naming the ghost step of %s", side, w, err, side)
			}
		}
	}
}

// TestMapCalledOncePerState pins Map's contract: a verification that
// passes calls it |reach(A)| + |start(A)| times, whatever the worker
// count.
func TestMapCalledOncePerState(t *testing.T) {
	c := chainAt(t, 3, 0)
	for _, h := range []*proof.PossMapping{c.H2, c.H1} {
		reach, err := explore.New(explore.Options{Workers: 1}).Reach(context.Background(), h.A)
		if err != nil {
			t.Fatal(err)
		}
		want := len(reach) + len(h.A.Start())
		for _, w := range batteryWorkers {
			calls := 0
			counted := &proof.PossMapping{A: h.A, B: h.B, Map: func(s ioa.State) []ioa.State {
				calls++
				return h.Map(s)
			}}
			if err := counted.VerifyOpts(explore.Options{Workers: w}); err != nil {
				t.Fatal(err)
			}
			if calls != want {
				t.Errorf("%s → %s, workers=%d: Map called %d times, want |reach|+|start| = %d",
					h.A.Name(), h.B.Name(), w, calls, want)
			}
		}
	}
}

// TestMapNeverCalledConcurrently: a Map that memoises into a plain Go
// map is legal at any worker count. Under -race this fails the moment
// two goroutines are inside Map at once.
func TestMapNeverCalledConcurrently(t *testing.T) {
	c := chainAt(t, 3, 0)
	memo := make(map[string][]ioa.State)
	memoised := &proof.PossMapping{A: c.A3r, B: c.A2, Map: func(s ioa.State) []ioa.State {
		if poss, ok := memo[s.Key()]; ok {
			return poss
		}
		poss := c.H2.Map(s)
		memo[s.Key()] = poss
		return poss
	}}
	opts := explore.Options{Workers: 8}
	if err := memoised.VerifyOpts(opts); err != nil {
		t.Fatal(err)
	}
	if err := proof.FairSatisfiesViaMappingOpts(memoised, opts); err != nil {
		t.Fatal(err)
	}
	always := func(ioa.State) bool { return true }
	never := func(ioa.Action) bool { return false }
	if err := memoised.TransferDownOpts(opts, always, never, always, never); err != nil {
		t.Fatal(err)
	}
}

// TestProofObsIndependentOfWorkers: the three proof metrics count the
// same states and steps however the pass was sharded, and the pass
// reports progress in phase "proof", ending on a Done snapshot that
// accounts for every reachable state.
func TestProofObsIndependentOfWorkers(t *testing.T) {
	c := chainAt(t, 3, 0)
	reach, err := explore.New(explore.Options{Workers: 1}).Reach(context.Background(), c.A3r)
	if err != nil {
		t.Fatal(err)
	}
	type totals struct{ states, steps, timed int64 }
	var first totals
	for i, w := range batteryWorkers {
		o := obs.New(nil)
		var mu sync.Mutex
		var beats []obs.Progress
		o.Progress = func(p obs.Progress) {
			if p.Phase == "proof" {
				mu.Lock()
				beats = append(beats, p)
				mu.Unlock()
			}
		}
		if err := c.H2.VerifyOpts(explore.Options{Workers: w, Obs: o}); err != nil {
			t.Fatal(err)
		}
		got := totals{o.Proof.MapStates.Value(), o.Proof.MapSteps.Value(), o.Proof.StateNS.Snapshot().Count}
		if got.states != int64(len(reach)) || got.timed != got.states || got.steps < got.states {
			t.Errorf("workers=%d: totals %+v, want %d states each timed once", w, got, len(reach))
		}
		if i == 0 {
			first = got
		} else if got != first {
			t.Errorf("workers=%d: totals %+v differ from %+v at workers=%d", w, got, first, batteryWorkers[0])
		}
		if len(beats) < 2 {
			t.Fatalf("workers=%d: %d proof progress snapshots, want a heartbeat and a final one", w, len(beats))
		}
		last := beats[len(beats)-1]
		if !last.Done || last.States != int64(len(reach)) || last.Total != last.States {
			t.Errorf("workers=%d: final snapshot %+v, want Done with %d of %d states", w, last, len(reach), len(reach))
		}
		for _, p := range beats[:len(beats)-1] {
			if p.Done || p.States > p.Total {
				t.Errorf("workers=%d: heartbeat %+v", w, p)
			}
		}
	}
}
