package reduce_test

// FuzzCanonicalOrbit drives random walks over the systems each
// canonicalizer targets and checks the orbit laws at every visited
// state:
//
//   - soundness of the quotient map: Canonical(Apply(s, g)) has the
//     same key as Canonical(s) for fuzz-chosen group elements g;
//   - idempotence: Canonical(Canonical(s)) == Canonical(s);
//   - the walk itself is a concrete execution that replays on the
//     unreduced automaton through its Next in reduce.ReplayTrace
//     (witness traces stay replayable).

import (
	"math/rand"
	"testing"

	"repro/internal/arbiter/spec"
	"repro/internal/arbiter/users"
	"repro/internal/bench"
	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/reduce"
	"repro/internal/ring"
)

// fuzzWalk takes up to steps random transitions from a random start
// state and returns the execution.
func fuzzWalk(t *testing.T, a ioa.Automaton, rng *rand.Rand, steps int) *ioa.Execution {
	t.Helper()
	starts := a.Start()
	if len(starts) == 0 {
		t.Fatal("automaton has no start states")
	}
	s := starts[rng.Intn(len(starts))]
	x := &ioa.Execution{Auto: a, States: []ioa.State{s}}
	for i := 0; i < steps; i++ {
		acts := a.Enabled(s)
		if len(acts) == 0 {
			break
		}
		act := acts[rng.Intn(len(acts))]
		succ := ioa.Successors(a, s, act)
		if len(succ) == 0 {
			t.Fatalf("enabled action %q has no successors", act)
		}
		s = succ[rng.Intn(len(succ))]
		x.Acts = append(x.Acts, act)
		x.States = append(x.States, s)
	}
	return x
}

// orbitCheck asserts the canonicalizer laws at s for a group element
// produced by apply.
func orbitCheck(t *testing.T, c explore.Canonicalizer, s ioa.State, apply func(ioa.State) ioa.State) {
	t.Helper()
	canon := c.Canonical(s)
	if again := c.Canonical(canon); again.Key() != canon.Key() {
		t.Fatalf("%s not idempotent: %q then %q", c.Name(), canon.Key(), again.Key())
	}
	moved := apply(s)
	if got := c.Canonical(moved).Key(); got != canon.Key() {
		t.Fatalf("%s orbit split: canonical of moved state %q, of original %q",
			c.Name(), got, canon.Key())
	}
}

func FuzzCanonicalOrbit(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(5), uint8(0))
	f.Add(int64(42), uint8(4), uint8(12), uint8(7))
	f.Add(int64(-9), uint8(2), uint8(20), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, size, steps, g uint8) {
		rng := rand.New(rand.NewSource(seed))
		walk := int(steps%24) + 1

		// Specification arbiter under Sₙ.
		n := int(size%3) + 2 // 2..4
		au, err := reduce.NewArbiterUsers(n)
		if err != nil {
			t.Fatal(err)
		}
		a1, err := bench.ExploreSystem(1, n)
		if err != nil {
			t.Fatal(err)
		}
		x := fuzzWalk(t, a1, rng, walk)
		perm := rng.Perm(n)
		for _, s := range x.States {
			orbitCheck(t, au, s, func(s ioa.State) ioa.State { return au.Apply(s, perm) })
		}
		if err := reduce.ReplayTrace(a1, x); err != nil {
			t.Fatalf("arbiter1 walk does not replay: %v", err)
		}

		// Distributed arbiter on the star under Zₙ.
		sn := int(size%3) + 3 // 3..5
		sc, err := reduce.NewStarRotation(sn)
		if err != nil {
			t.Fatal(err)
		}
		star, err := bench.StarSystem(sn)
		if err != nil {
			t.Fatal(err)
		}
		x = fuzzWalk(t, star, rng, walk)
		rot := int(g) % sn
		for _, s := range x.States {
			orbitCheck(t, sc, s, func(s ioa.State) ioa.State { return sc.Apply(s, rot) })
		}
		if err := reduce.ReplayTrace(star, x); err != nil {
			t.Fatalf("star walk does not replay: %v", err)
		}

		// LeLann token ring under rotation.
		rn := int(size%3) + 3 // 3..5
		rc, err := reduce.NewRingRotation(rn)
		if err != nil {
			t.Fatal(err)
		}
		names := spec.DefaultUsers(rn)
		rsys, err := ring.New(names)
		if err != nil {
			t.Fatal(err)
		}
		comps := append([]ioa.Automaton{rsys.Arbiter}, users.Automata(users.HeavyLoad(names))...)
		rcl, err := ioa.Compose("ring-closed", comps...)
		if err != nil {
			t.Fatal(err)
		}
		x = fuzzWalk(t, rcl, rng, walk)
		rrot := int(g) % rn
		for _, s := range x.States {
			orbitCheck(t, rc, s, func(s ioa.State) ioa.State { return rc.Apply(s, rrot) })
		}
		if err := reduce.ReplayTrace(rcl, x); err != nil {
			t.Fatalf("ring walk does not replay: %v", err)
		}

		// Dijkstra's ring under counter shifts.
		dn := int(size%3) + 3 // 3..5
		dk, err := ring.NewDijkstra(dn, dn)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := reduce.NewDijkstraShift(dn)
		if err != nil {
			t.Fatal(err)
		}
		x = fuzzWalk(t, dk.Auto, rng, walk)
		shift := int(g) % dn
		for _, s := range x.States {
			orbitCheck(t, ds, s, func(s ioa.State) ioa.State { return ds.Apply(s, shift) })
		}
		if err := reduce.ReplayTrace(dk.Auto, x); err != nil {
			t.Fatalf("dijkstra walk does not replay: %v", err)
		}
	})
}
