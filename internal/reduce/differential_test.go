package reduce_test

// The oracle-differential battery: the engine, unreduced and under
// each system's symmetry quotient, is replayed against the
// explore.ReferenceReach oracle on the repository's closed systems, at
// GOMAXPROCS {1, 2, 8}. Checked per case:
//
//   - the reach holds exactly one concrete member per orbit of the
//     oracle's reachable set (both directions, compared through the
//     canonicalizer; with no canonicalizer an orbit is a single state,
//     so the unreduced arm pins the same state set at every
//     GOMAXPROCS);
//   - the invariant verdict matches the oracle's, a symmetric target
//     predicate that fails somewhere yields a violation in reduced and
//     unreduced runs alike, and the run's witness replays step-by-step
//     on the unreduced automaton via reduce.ReplayTrace.
//
// TestUnsoundCanonMustFail is the CI must-fail arm: under
// REDUCE_NEGATIVE=1 it puts an unsound canonicalizer — one that merges
// states the target predicate separates — through the same assertions,
// and the reduction CI job requires that run to fail.

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"testing"

	"repro/internal/arbiter/spec"
	"repro/internal/arbiter/users"
	"repro/internal/bench"
	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/mutex"
	"repro/internal/reduce"
	"repro/internal/ring"
)

// batteryCase is one system under differential test.
type batteryCase struct {
	name  string
	build func(t *testing.T) ioa.Automaton
	canon explore.Canonicalizer
	// invariant holds on every reachable state (orbit-invariant).
	invariant func(ioa.State) bool
	// target fails on some reachable state (orbit-invariant), to
	// exercise violation witnesses.
	target func(ioa.State) bool
}

// mutexHolds reports at most one user automaton holding (components
// 1..n of a closed arbiter or ring state).
func mutexHolds(s ioa.State) bool {
	ts, ok := s.(*ioa.TupleState)
	if !ok {
		return true
	}
	n := 0
	for i := 1; i < ts.Len(); i++ {
		if u, ok := ts.At(i).(*users.State); ok && u.Phase() == users.Holding {
			n++
		}
	}
	return n <= 1
}

// someoneIdle fails once every user has left the idle phase; reachable
// in every heavy-load arbiter and ring system, and invariant under
// user permutations and rotations.
func someoneIdle(s ioa.State) bool {
	ts, ok := s.(*ioa.TupleState)
	if !ok {
		return true
	}
	for i := 1; i < ts.Len(); i++ {
		if u, ok := ts.At(i).(*users.State); ok && u.Phase() == users.Idle {
			return true
		}
	}
	return false
}

func batteryCases(t *testing.T) []batteryCase {
	t.Helper()
	var cases []batteryCase

	// Specification arbiter under the full symmetric group, n = 2..4.
	for n := 2; n <= 4; n++ {
		n := n
		canon, err := reduce.NewArbiterUsers(n)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, batteryCase{
			name: fmt.Sprintf("arbiter1-n%d", n),
			build: func(t *testing.T) ioa.Automaton {
				a, err := bench.ExploreSystem(1, n)
				if err != nil {
					t.Fatal(err)
				}
				return a
			},
			canon:     canon,
			invariant: mutexHolds,
			target:    someoneIdle,
		})
	}

	// Distributed arbiter on the binary tree (unreduced only: the
	// round-robin sendgrant scan leaves the tree no nontrivial sound
	// symmetry).
	cases = append(cases, batteryCase{
		name: "arbiter3-n3",
		build: func(t *testing.T) ioa.Automaton {
			a, err := bench.ExploreSystem(3, 3)
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
		invariant: mutexHolds,
		target:    someoneIdle,
	})

	// Distributed arbiter on the star, under its free rotation group.
	starCanon, err := reduce.NewStarRotation(4)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, batteryCase{
		name: "arbiter3-star-n4",
		build: func(t *testing.T) ioa.Automaton {
			a, err := bench.StarSystem(4)
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
		canon:     starCanon,
		invariant: mutexHolds,
		target:    someoneIdle,
	})

	// Dijkstra's K-state ring under counter shifts. From the legitimate
	// start every reachable state keeps exactly one privilege; the
	// all-counters-equal target fails one move in. Both predicates are
	// shift-invariant.
	dk, err := ring.NewDijkstra(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	dShift, err := reduce.NewDijkstraShift(3)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, batteryCase{
		name:  "dijkstra-n3",
		build: func(t *testing.T) ioa.Automaton { return dk.Auto },
		canon: dShift,
		invariant: func(s ioa.State) bool {
			return len(dk.Privileged(s)) == 1
		},
		target: func(s ioa.State) bool {
			ds, ok := s.(*ring.DijkstraState)
			if !ok {
				return true
			}
			for i := 1; i < ds.Len(); i++ {
				if ds.Val(i) != ds.Val(0) {
					return true
				}
			}
			return false
		},
	})

	// LeLann token ring under rotation.
	ringCanon, err := reduce.NewRingRotation(3)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, batteryCase{
		name: "ring-n3",
		build: func(t *testing.T) ioa.Automaton {
			names := spec.DefaultUsers(3)
			sys, err := ring.New(names)
			if err != nil {
				t.Fatal(err)
			}
			comps := append([]ioa.Automaton{sys.Arbiter}, users.Automata(users.HeavyLoad(names))...)
			a, err := ioa.Compose("ring-closed", comps...)
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
		canon:     ringCanon,
		invariant: mutexHolds,
		target:    someoneIdle,
	})

	// Burns' mutex with two client automata; the residual register
	// inputs make it an open composition, so every mode (including the
	// oracle) runs on the ClosedWorld wrapper.
	cases = append(cases, batteryCase{
		name: "mutex",
		build: func(t *testing.T) ioa.Automaton {
			sys, err := mutex.New()
			if err != nil {
				t.Fatal(err)
			}
			comps := []ioa.Automaton{sys.Mutex}
			for i := 0; i < 2; i++ {
				i := i
				d := ioa.NewDef("User" + string(rune('0'+i)))
				d.Start(ioa.KeyState("rem"))
				d.Output(mutex.Try(i), "u"+string(rune('0'+i)),
					func(s ioa.State) bool { return s.Key() == "rem" },
					func(ioa.State) ioa.State { return ioa.KeyState("trying") })
				d.Input(mutex.Crit(i), func(s ioa.State) ioa.State { return ioa.KeyState("crit") })
				d.Output(mutex.Exit(i), "u"+string(rune('0'+i)),
					func(s ioa.State) bool { return s.Key() == "crit" },
					func(ioa.State) ioa.State { return ioa.KeyState("exited") })
				d.Input(mutex.Rem(i), func(s ioa.State) ioa.State { return ioa.KeyState("rem") })
				comps = append(comps, d.MustBuild())
			}
			a, err := ioa.Compose("mutex-closed", comps...)
			if err != nil {
				t.Fatal(err)
			}
			return explore.ClosedWorld(a)
		},
		invariant: func(s ioa.State) bool {
			ts, ok := s.(*ioa.TupleState)
			if !ok {
				return true
			}
			n := 0
			for i := 1; i < ts.Len(); i++ {
				if ts.At(i).Key() == "crit" {
					n++
				}
			}
			return n <= 1
		},
		target: func(s ioa.State) bool {
			ts, ok := s.(*ioa.TupleState)
			if !ok {
				return true
			}
			for i := 1; i < ts.Len(); i++ {
				if ts.At(i).Key() == "crit" {
					return false
				}
			}
			return true
		},
	})

	return cases
}

// canonKeys maps states to their orbit identities: the canonical
// representative's key under c, or the state's own key with no
// canonicalizer.
func canonKeys(c explore.Canonicalizer, states []ioa.State) map[string]bool {
	out := make(map[string]bool, len(states))
	for _, s := range states {
		if c != nil {
			out[c.Canonical(s).Key()] = true
		} else {
			out[s.Key()] = true
		}
	}
	return out
}

// An oracle is what explore.ReferenceReach establishes about one
// battery case, unreduced.
type oracle struct {
	auto    ioa.Automaton
	full    []ioa.State
	verdict bool
}

// holdsOn reports whether pred holds on every one of states.
func holdsOn(pred func(ioa.State) bool, states []ioa.State) bool {
	return !slices.ContainsFunc(states, func(s ioa.State) bool { return !pred(s) })
}

func consultOracle(t *testing.T, c batteryCase) oracle {
	t.Helper()
	o := oracle{auto: c.build(t)}
	var err error
	if o.full, err = explore.ReferenceReach(o.auto, explore.DefaultLimit); err != nil {
		t.Fatal(err)
	}
	o.verdict = holdsOn(c.invariant, o.full)
	if holdsOn(c.target, o.full) {
		t.Fatalf("battery target predicate never fails on %s; pick a reachable one", c.name)
	}
	return o
}

// checkAgainstOracle explores c at GOMAXPROCS procs, quotiented by
// canon (nil: unreduced), and holds the run to the oracle.
func checkAgainstOracle(t *testing.T, c batteryCase, o oracle, mode string, canon explore.Canonicalizer, procs int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	a := c.build(t)
	eng := explore.New(explore.Options{Canon: canon})
	reduced, err := eng.Reach(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}

	// Quotient-size and membership checks.
	want := canonKeys(canon, o.full)
	got := canonKeys(canon, reduced)
	if len(reduced) != len(want) {
		t.Errorf("%s reach %d states, oracle has %d orbits", mode, len(reduced), len(want))
	}
	for k := range got {
		if !want[k] {
			t.Errorf("reduced orbit %q not reachable in oracle", k)
		}
	}
	for k := range want {
		if !got[k] {
			t.Errorf("oracle orbit %q missing from reduced reach", k)
		}
	}

	// Invariant verdict must match the oracle's.
	if verdict := holdsOn(c.invariant, reduced); verdict != o.verdict {
		t.Errorf("%s invariant verdict %v, oracle %v", mode, verdict, o.verdict)
	}

	// The failing target must be caught, and its
	// witness must replay on the unreduced automaton.
	v, err := eng.CheckInvariant(context.Background(), a, c.target)
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatalf("%s missed the target violation the oracle reaches", mode)
	}
	if c.target(v.State) {
		t.Errorf("reported violation state satisfies the target predicate")
	}
	if err := reduce.ReplayTrace(o.auto, v.Trace); err != nil {
		t.Errorf("witness does not replay on the unreduced automaton: %v", err)
	}
	if got := v.Trace.States[len(v.Trace.States)-1]; got.Key() != v.State.Key() {
		t.Errorf("witness ends at %q, violation at %q", got.Key(), v.State.Key())
	}
}

// TestDifferentialBattery is the oracle-differential battery over all
// systems, modes, and GOMAXPROCS values.
func TestDifferentialBattery(t *testing.T) {
	for _, c := range batteryCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			o := consultOracle(t, c)
			type arm struct {
				mode  string
				canon explore.Canonicalizer
			}
			arms := []arm{{"full", nil}}
			if c.canon != nil {
				arms = append(arms, arm{"symmetry", c.canon})
			}
			// The -wN suffix is the GOMAXPROCS the arm runs at.
			for _, m := range arms {
				for _, procs := range []int{1, 2, 8} {
					t.Run(fmt.Sprintf("%s-w%d", m.mode, procs), func(t *testing.T) {
						checkAgainstOracle(t, c, o, m.mode, m.canon, procs)
					})
				}
			}
		})
	}
}

// targetBlind is an unsound canonicalizer: it identifies every state
// that violates the case's target predicate with the start state,
// which satisfies it — it merges states the predicate separates, so
// the quotient hides every violation the oracle reaches.
type targetBlind struct {
	target func(ioa.State) bool
	start  ioa.State
}

func (targetBlind) Name() string { return "target-blind" }

func (c targetBlind) Canonical(s ioa.State) ioa.State {
	if !c.target(s) {
		return c.start
	}
	return s
}

// unsoundArm is the first battery case with its oracle and the
// targetBlind canonicalizer built for it.
func unsoundArm(t *testing.T) (batteryCase, oracle, explore.Canonicalizer) {
	t.Helper()
	c := batteryCases(t)[0]
	o := consultOracle(t, c)
	return c, o, targetBlind{target: c.target, start: o.auto.Start()[0]}
}

// TestTargetBlindHidesViolation pins that the must-fail fixture is
// still unsound: under targetBlind the engine reports the target as
// an invariant, although the oracle reaches a violation, at every
// GOMAXPROCS (the subtest's wN).
func TestTargetBlindHidesViolation(t *testing.T) {
	c, o, canon := unsoundArm(t)
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("w%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			eng := explore.New(explore.Options{Canon: canon})
			v, err := eng.CheckInvariant(context.Background(), o.auto, c.target)
			if err != nil {
				t.Fatal(err)
			}
			if v != nil {
				t.Errorf("targetBlind still lets the violation %q through: fixture no longer unsound", v.State.Key())
			}
		})
	}
}

// TestUnsoundCanonMustFail is wired into CI inverted: the reduction
// job runs it with REDUCE_NEGATIVE=1 and requires the test to FAIL
// (the quotient misses the target violation the oracle reaches),
// proving the battery's assertions reject an unsound canonicalizer
// rather than vacuously passing. Without the env var it is skipped.
func TestUnsoundCanonMustFail(t *testing.T) {
	if os.Getenv("REDUCE_NEGATIVE") == "" {
		t.Skip("negative arm; set REDUCE_NEGATIVE=1 (CI runs this expecting failure)")
	}
	c, o, canon := unsoundArm(t)
	checkAgainstOracle(t, c, o, "symmetry", canon, 1)
}
