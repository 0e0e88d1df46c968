package explore_test

// Canonicalization where the canonical bytes are made: the kernel and
// the external census each encode Canon.Canonical(s) into one buffer
// they reuse for every successor, and the store keeps its own copy. The
// pair system's orbits are its unordered digit pairs, so a walk that
// let a reused buffer alias a stored encoding, or that skipped Canon,
// admits the wrong number of states.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/store"
)

// pairDigits is the range of each component of a pair state.
const pairDigits = 20

// pairKey is the key of the pair state (x, y).
func pairKey(x, y int) ioa.State { return ioa.KeyState(fmt.Sprintf("%02d,%02d", x, y)) }

// pairTable is the KeyState system over pairs (x, y) of digits below
// pairDigits, from (0, 0): inc raises either component, back halves
// both and swaps them. Swapping the components maps every step to a
// step with the same action, so sortPair is an automorphism. The one
// deadlock is the top pair, where only back is enabled — an input.
func pairTable() *ioa.Table {
	sig := ioa.MustSignature([]ioa.Action{"back"}, nil, []ioa.Action{"inc"})
	var states []ioa.State
	var steps []ioa.Step
	for x := 0; x < pairDigits; x++ {
		for y := 0; y < pairDigits; y++ {
			s := pairKey(x, y)
			states = append(states, s)
			if x+1 < pairDigits {
				steps = append(steps, ioa.Step{From: s, Act: "inc", To: pairKey(x+1, y)})
			}
			if y+1 < pairDigits {
				steps = append(steps, ioa.Step{From: s, Act: "inc", To: pairKey(x, y+1)})
			}
			steps = append(steps, ioa.Step{From: s, Act: "back", To: pairKey(y/2, x/2)})
		}
	}
	return ioa.MustTable("pairs", sig, states[:1], steps, []ioa.Class{{Name: "inc", Actions: ioa.NewSet("inc")}})
}

// sortPair maps a pair state to its orbit representative, the pair
// with the smaller component first.
type sortPair struct{}

func (sortPair) Name() string { return "sort-pair" }

func (sortPair) Canonical(s ioa.State) ioa.State {
	var x, y int
	if _, err := fmt.Sscanf(s.Key(), "%d,%d", &x, &y); err != nil || x <= y {
		return s
	}
	return pairKey(y, x)
}

// pairOrbits is the number of unordered pairs: the quotient's size.
const pairOrbits = pairDigits * (pairDigits + 1) / 2

// TestCanonInternsEachOrbitOnce: the kernel admits exactly one state of
// every orbit — orbit-mates found at any distance apart dedup against
// the stored canonical bytes, never against the buffer the kernel
// reuses.
func TestCanonInternsEachOrbitOnce(t *testing.T) {
	states, err := explore.New(explore.Options{Canon: sortPair{}}).Reach(context.Background(), pairTable())
	if err != nil {
		t.Fatal(err)
	}
	orbits := map[string]bool{}
	for _, s := range states {
		k := sortPair{}.Canonical(s).Key()
		if orbits[k] {
			t.Fatalf("orbit %s admitted twice", k)
		}
		orbits[k] = true
	}
	if len(orbits) != pairOrbits {
		t.Fatalf("%d orbits admitted, want %d", len(orbits), pairOrbits)
	}
}

// sortLeaf is sortPair on the one component of the composed pair
// system, whose states are one-part tuples.
type sortLeaf struct{}

func (sortLeaf) Name() string { return "sort-leaf" }

func (sortLeaf) Canonical(s ioa.State) ioa.State {
	return ioa.NewTupleState([]ioa.State{sortPair{}.Canonical(s.(*ioa.TupleState).At(0))})
}

// TestCensusExternalUnderCanon: the external census (Spill) under Canon
// agrees with the in-RAM Census under the same Canon on states, depth
// and deadlocks, and visits the same orbits, each once — and what it
// visits are the representatives, the states its encodings decode to.
// The pair system is composed so that ioa.Decoder can rebuild it.
func TestCensusExternalUnderCanon(t *testing.T) {
	ctx := context.Background()
	a := composed(pairTable())
	visits := func(opts explore.Options) (explore.Summary, map[string]int) {
		t.Helper()
		seen := map[string]int{}
		sum, err := explore.New(opts).Census(ctx, a, nil, func(s ioa.State) {
			k := sortLeaf{}.Canonical(s).Key()
			if opts.Spill != nil && k != s.Key() {
				t.Errorf("external census visited %s, not its representative %s", s.Key(), k)
			}
			seen[k]++
		})
		if err != nil {
			t.Fatal(err)
		}
		return sum, seen
	}
	ram, ramSeen := visits(explore.Options{Canon: sortLeaf{}})
	ext, extSeen := visits(explore.Options{Canon: sortLeaf{},
		Spill: &store.SpillOptions{Dir: t.TempDir(), MemBudget: 256, BlockEvery: 4}})
	if ram != ext {
		t.Fatalf("summaries differ: external %+v, in-RAM %+v", ext, ram)
	}
	if ram.States != pairOrbits || ram.Deadlocks != 1 {
		t.Fatalf("in-RAM census under Canon: %+v, want %d states and one deadlock", ram, pairOrbits)
	}
	if len(extSeen) != len(ramSeen) {
		t.Fatalf("external census visited %d orbits, in-RAM %d", len(extSeen), len(ramSeen))
	}
	for k, n := range ramSeen {
		if n != 1 || extSeen[k] != 1 {
			t.Fatalf("orbit %s visited %d times in RAM, %d externally; want once each", k, n, extSeen[k])
		}
	}
}
