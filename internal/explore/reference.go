package explore

// The pre-store explorer, preserved verbatim as a differential oracle
// and benchmark baseline. ReferenceReach is the seed string-keyed BFS
// (map[string]struct{} dedup on State.Key(), successor slices collected
// by ioa.Successors, every action of acts(A) stepped — which makes it
// the oracle for Enabled too): the store-backed sequential engine must
// visit states in bit-identical order to it, and BENCH_store.json measures
// the interned engine against it. It is NOT deprecated — tests and
// internal/bench call it on purpose — but production callers want
// Engine.Reach.

import (
	"repro/internal/ioa"
)

// ReferenceReach computes the reachable states of a, in BFS order,
// visiting at most limit states, with the seed (string-keyed,
// slice-materializing) algorithm. It returns ErrLimit (with the
// partial result) if the limit is hit before the frontier empties.
func ReferenceReach(a ioa.Automaton, limit int) ([]ioa.State, error) {
	acts := a.Sig().Acts().Sorted()
	seen := make(map[string]struct{})
	var order []ioa.State
	var frontier []ioa.State
	push := func(s ioa.State) {
		if _, ok := seen[s.Key()]; ok {
			return
		}
		seen[s.Key()] = struct{}{}
		order = append(order, s)
		frontier = append(frontier, s)
	}
	for _, s := range a.Start() {
		push(s)
	}
	for len(frontier) > 0 {
		s := frontier[0]
		frontier = frontier[1:]
		for _, act := range acts {
			for _, nxt := range ioa.Successors(a, s, act) {
				if len(order) >= limit {
					if _, ok := seen[nxt.Key()]; !ok {
						return order, errLimit(a, limit)
					}
					continue
				}
				push(nxt)
			}
		}
	}
	return order, nil
}
