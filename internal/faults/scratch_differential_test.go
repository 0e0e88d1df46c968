package faults_test

// Scratch-versus-heap battery for Next. A scratch may change where an
// automaton builds its successors, never which ones or in what order,
// and an early stop must stop at once: for every catalogue system at
// smoke size and every fault-wrapper shape, over every reachable state
// and every signature action, Next with a fresh Scratch and Next with
// none must yield the same keys in the same order, and a yield that
// declines must end the walk after one call with false. The explorers,
// induct and the lasso graph step borrowed; the reference explorer,
// the proof checkers and the simulator step on the heap; a disagreement
// would silently split their state spaces. The binary runs poisoned
// (poison_test.go), so a borrowed key is read before its Reset.

import (
	"errors"
	"slices"
	"strconv"
	"testing"

	"repro/internal/bench"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/ioa"
)

// nextKeys runs Next from s by act with sc, returning the successors'
// keys, read while they are valid.
func nextKeys(a ioa.Automaton, sc *ioa.Scratch, s ioa.State, act ioa.Action) []string {
	var keys []string
	a.Next(sc, s, act, func(nxt ioa.State) bool {
		keys = append(keys, nxt.Key())
		return true
	})
	return keys
}

// agreeScratchNil checks the contract at every state of states by
// every action of a, and returns how many successors it compared.
func agreeScratchNil(t *testing.T, a ioa.Automaton, states []ioa.State) int {
	t.Helper()
	acts := a.Sig().Acts().Sorted()
	compared := 0
	for _, s := range states {
		for _, act := range acts {
			var sc ioa.Scratch
			heap, lent := nextKeys(a, nil, s, act), nextKeys(a, &sc, s, act)
			if !slices.Equal(lent, heap) {
				t.Fatalf("%s: from %q by %s:\n nil scratch %q\n scratch     %q", a.Name(), s.Key(), act, heap, lent)
			}
			compared += len(heap)
			if len(heap) == 0 {
				continue
			}
			for name, sc := range map[string]*ioa.Scratch{"nil scratch": nil, "scratch": &sc} {
				yields := 0
				if a.Next(sc, s, act, func(ioa.State) bool { yields++; return false }) || yields != 1 {
					t.Fatalf("%s: from %q by %s with %s: a declined yield left %d calls and no false", a.Name(), s.Key(), act, name, yields)
				}
			}
		}
	}
	return compared
}

// TestScratchAgreesWithNilOnEverySystem: every catalogue system, its
// reachable states up to a few hundred.
func TestScratchAgreesWithNilOnEverySystem(t *testing.T) {
	for _, sys := range bench.Systems() {
		a, err := sys.Build(bench.Params{Users: 2, UsersSet: true, GridBase: 3, GridDigits: 3})
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		// A truncated reach is as good a sample of states as a whole one.
		states, err := explore.ReferenceReach(a, 500)
		if err != nil && !errors.Is(err, explore.ErrLimit) {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		if agreeScratchNil(t, a, states) == 0 {
			t.Fatalf("%s: no successors compared", sys.Name)
		}
	}
}

// modCounter is a bounded counter (inc wraps mod 3), so reachability
// sweeps terminate.
func modCounter(t *testing.T) *ioa.Prog {
	t.Helper()
	val := func(s ioa.State) int {
		n, _ := strconv.Atoi(string(s.(ioa.KeyState)))
		return n
	}
	d := ioa.NewDef("modctr")
	d.Start(ioa.KeyState("0"))
	d.Input(ioa.Act("inc"), func(s ioa.State) ioa.State {
		return ioa.KeyState(strconv.Itoa((val(s) + 1) % 3))
	})
	d.Output(ioa.Act("emit"), "ctr",
		func(s ioa.State) bool { return val(s) > 0 },
		func(s ioa.State) ioa.State { return ioa.KeyState(strconv.Itoa(val(s) - 1)) })
	p, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// wrappedSystems builds every fault-wrapper shape around the bounded
// counter: crash-restart in both modes, clamp, clamp-under-crash, and a
// composition of crash-wrapped components (the wrappers stepped as
// leaves of a composite, which may borrow).
func wrappedSystems(t *testing.T) map[string]ioa.Automaton {
	t.Helper()
	out := make(map[string]ioa.Automaton)
	for _, mode := range []faults.RestartMode{faults.Reset, faults.Resume} {
		c, err := faults.CrashRestart(modCounter(t), "p", mode)
		if err != nil {
			t.Fatal(err)
		}
		out["crash-"+mode.String()] = c
	}
	// Clamp the counter to at most 1; the fix is non-trivial (it
	// rewrites states above the cap).
	cap1 := func(s ioa.State) ioa.State {
		if n, _ := strconv.Atoi(s.Key()); n > 1 {
			return ioa.KeyState("1")
		}
		return s
	}
	out["clamp"] = faults.Clamp(modCounter(t), "cap1", cap1)
	crashedClamp, err := faults.CrashRestart(faults.Clamp(modCounter(t), "cap1", cap1), "q", faults.Resume)
	if err != nil {
		t.Fatal(err)
	}
	out["crash-over-clamp"] = crashedClamp

	comps := make([]ioa.Automaton, 2)
	for i := range comps {
		name := "r" + strconv.Itoa(i)
		d := ioa.NewDef(name)
		d.Start(ioa.KeyState("i"))
		d.Input(ioa.Act("inc"), func(s ioa.State) ioa.State {
			if s.Key() == "i" {
				return ioa.KeyState("j")
			}
			return ioa.KeyState("i")
		})
		comps[i], err = faults.CrashRestart(d.MustBuild(), name, faults.Reset)
		if err != nil {
			t.Fatal(err)
		}
	}
	// A shared input plus independent crash/restart actions: the
	// composite steps both components on inc and one component on each
	// fault action.
	composed, err := ioa.Compose("crash-pair", comps...)
	if err != nil {
		t.Fatal(err)
	}
	out["composed-crash"] = composed
	return out
}

func TestFaultWrapperVisitNextDifferential(t *testing.T) {
	for name, a := range wrappedSystems(t) {
		t.Run(name, func(t *testing.T) {
			states, err := explore.ReferenceReach(a, explore.DefaultLimit)
			if err != nil {
				t.Fatal(err)
			}
			if len(states) < 2 {
				t.Fatalf("trivial sweep (%d states)", len(states))
			}
			agreeScratchNil(t, a, states)
		})
	}
}

// TestScheduledNetworkVisitNextDifferential covers the scheduled
// network automaton under a fault-heavy profile including crash
// windows — pinning that scheduled fault decisions are
// state-deterministic with and without a scratch.
func TestScheduledNetworkVisitNextDifferential(t *testing.T) {
	sched, err := faults.NewSchedule(3, faults.Profile{Drop: 0.2, Duplicate: 0.3, Delay: 1, Crash: 0.1, CrashLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	msgs := []faults.Msg{
		{Kind: "k0", Send: ioa.Act("snd", "k0"), Recv: ioa.Act("rcv", "k0")},
		{Kind: "k1", Send: ioa.Act("snd", "k1"), Recv: ioa.Act("rcv", "k1")},
	}
	net, err := faults.NewNetwork("net", []faults.Link{{From: "x", To: "y", Msgs: msgs}}, faults.Injection{Sched: sched})
	if err != nil {
		t.Fatal(err)
	}
	// Bound the sweep: the sent counter makes the raw space infinite,
	// so sweep the states reachable within six steps instead.
	states := net.Start()
	seen := map[string]bool{states[0].Key(): true}
	acts := net.Sig().Acts().Sorted()
	for depth := 0; depth < 6; depth++ {
		agreeScratchNil(t, net, states)
		var next []ioa.State
		for _, s := range states {
			for _, act := range acts {
				for _, n := range ioa.Successors(net, s, act) {
					if !seen[n.Key()] {
						seen[n.Key()] = true
						next = append(next, n)
					}
				}
			}
		}
		states = next
	}
	if len(seen) < 10 {
		t.Fatalf("trivial sweep: %d states", len(seen))
	}
}
