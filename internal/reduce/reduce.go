// Package reduce shrinks exhaustive state-space exploration without
// changing its verdicts, by symmetry quotienting (symmetry.go): a
// store.Canonicalizer that maps every state to the canonical
// representative of its orbit under a declared automorphism group of
// the automaton — permutations of interchangeable arbiter users,
// rotations of the LeLann ring, counter shifts of Dijkstra's K-state
// ring. The explorers intern canonical encodings, so two states that
// differ only by a symmetry share one dense ID, and the reachable set
// collapses to one concrete representative per orbit. Crumbs and
// witness traces never need decanonicalization: the engine keeps the
// concrete first-discovered member of each orbit and records the
// concrete (parent, action) transition that produced it, so every
// reported trace is a genuine execution replayable through the
// automaton's Next.
//
// The paper's §3.4 analysis is parameterized over n structurally
// identical users; the quotient exploits exactly that regularity.
// Soundness is not taken on faith: the differential battery in this
// package replays every reduced run against the unreduced
// explore.ReferenceReach oracle — invariant verdicts, quotient sizes,
// witness validity — and the CI reduction job keeps a deliberately
// non-automorphic canonicalizer failing.
package reduce

import (
	"fmt"

	"repro/internal/ioa"
)

// ReplayTrace validates that an execution is a genuine trace of a:
// every step's target must be among Next(source, action), compared by
// Key. Reduced runs report concrete (not canonicalized) executions, so
// their witnesses must replay against the unreduced automaton; the
// differential battery and the fuzz targets call this on every
// violation witness.
func ReplayTrace(a ioa.Automaton, x *ioa.Execution) error {
	if x == nil || len(x.States) == 0 {
		return fmt.Errorf("reduce: empty execution")
	}
	for i, act := range x.Acts {
		src, dst := x.States[i], x.States[i+1]
		want := dst.Key()
		if a.Next(nil, src, act, func(nxt ioa.State) bool { return nxt.Key() != want }) {
			return fmt.Errorf("reduce: step %d not a transition: %s --%s--> %s",
				i, src.Key(), act, dst.Key())
		}
	}
	return nil
}
