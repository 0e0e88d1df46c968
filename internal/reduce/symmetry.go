package reduce

// Symmetry canonicalizers: store.Canonicalizer implementations for the
// automorphism groups this repository's systems actually have. Each
// Canonical picks the orbit representative by sorting interchangeable
// components into a canonical order (and consistently relabeling every
// part of the state that references them by index), so the interned
// byte encoding — and hence its hash and the dense ID — is shared by
// the whole orbit.
//
// Soundness requirement common to all three: the group action must be
// an automorphism of the closed system's transition relation. That
// holds when the permuted components are genuinely interchangeable
// (identical automata modulo action renaming); the differential
// battery checks it against the unreduced oracle, and FuzzCanonicalOrbit
// checks orbit-invariance (canonicalize ∘ permute = canonicalize) on
// random group elements.

import (
	"fmt"
	"sort"

	"repro/internal/arbiter/dist"
	"repro/internal/arbiter/spec"
	"repro/internal/ioa"
	"repro/internal/ring"
	"repro/internal/store"
)

// ArbiterUsers is the full symmetric group Sₙ on the n users of the
// closed specification arbiter (component 0 the A₁ automaton,
// components 1..n the user automata, as built by bench.ExploreSystem
// level 1 and ioasim -system arbiter1). Canonical ranks users by their
// complete footprint in the state — the user component's key, the
// arbiter's requesting flag for that user, and whether that user holds
// the resource — and relabels the whole state by the ranking
// permutation: user components are gathered into rank order and the
// A₁ state is rebuilt with permuted requester flags and remapped
// holder. Users with equal rank are interchangeable in that state
// (transposing them is a stabilizer), so any tie-break yields the same
// canonical state and the representative is exact: two states
// canonicalize equal iff some user permutation maps one to the other.
//
// Sound only when the user automata are interchangeable (identical
// configurations, e.g. users.HeavyLoad).
type ArbiterUsers struct {
	n int
}

var _ store.Canonicalizer = (*ArbiterUsers)(nil)

// NewArbiterUsers builds the Sₙ canonicalizer for n users.
func NewArbiterUsers(n int) (*ArbiterUsers, error) {
	if n < 1 {
		return nil, fmt.Errorf("reduce: ArbiterUsers needs n >= 1, got %d", n)
	}
	return &ArbiterUsers{n: n}, nil
}

// Name implements store.Canonicalizer.
func (c *ArbiterUsers) Name() string { return fmt.Sprintf("users-S%d", c.n) }

// Canonical implements store.Canonicalizer. States that do not have
// the closed-arbiter shape pass through unchanged (the identity orbit).
func (c *ArbiterUsers) Canonical(s ioa.State) ioa.State {
	ts, ok := s.(*ioa.TupleState)
	if !ok || ts.Len() != c.n+1 {
		return s
	}
	arb, ok := ts.At(0).(*spec.State)
	if !ok || arb.NumUsers() != c.n {
		return s
	}
	perm := make([]int, c.n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(x, y int) bool {
		i, j := perm[x], perm[y]
		if ki, kj := ts.At(1+i).Key(), ts.At(1+j).Key(); ki != kj {
			return ki < kj
		}
		if ri, rj := arb.Requesting(i), arb.Requesting(j); ri != rj {
			return !ri
		}
		if hi, hj := arb.Holder() == i, arb.Holder() == j; hi != hj {
			return !hi
		}
		return false
	})
	return c.Apply(s, perm)
}

// Apply applies the group element perm to s: slot j of the result
// holds old user perm[j] (the gather convention), with the A₁ state
// relabeled to match. It is exported for the orbit fuzz target; states
// without the closed-arbiter shape pass through unchanged.
func (c *ArbiterUsers) Apply(s ioa.State, perm []int) ioa.State {
	ts, ok := s.(*ioa.TupleState)
	if !ok || ts.Len() != c.n+1 || len(perm) != c.n {
		return s
	}
	arb, ok := ts.At(0).(*spec.State)
	if !ok || arb.NumUsers() != c.n {
		return s
	}
	req := make([]bool, c.n)
	holder := arb.Holder()
	newHolder := -1
	parts := make([]ioa.State, c.n+1)
	for j, old := range perm {
		req[j] = arb.Requesting(old)
		if holder == old {
			newHolder = j
		}
		parts[1+j] = ts.At(1 + old)
	}
	parts[0] = spec.NewState(req, newHolder)
	return ioa.NewTupleState(parts)
}

// StarRotation is the cyclic group Zₙ on the level-3 distributed
// arbiter over graph.Star(n): one process automaton whose n neighbors
// are the n users, in index order (component 0 the A₃ composite
// [process, M], components 1..n the user automata). Rotating the
// users is an automorphism of the full distributed algorithm — unlike
// arbitrary user permutations, which Figure 3.5's round-robin
// sendgrant scan breaks: the guard walks the neighbor circle
// cyclically from lastForward, so only index maps preserving cyclic
// order (rotations) commute with the transition relation. On the
// binary tree every node's circle pins the parent edge, leaving only
// trivial automorphisms; the star is the level-3 topology whose
// automorphism group is the whole rotation group, and it is the
// paper's "n structurally identical users" instance in its purest
// form.
//
// The action is free: a nonzero rotation always moves lastForward, so
// every orbit has exactly n states and exactly one of them has
// lastForward = 0. Canonical rotates by -lastForward, which is exact,
// idempotent, and O(n).
//
// Sound only when the user automata are interchangeable (identical
// configurations, e.g. users.HeavyLoad).
type StarRotation struct {
	n int
}

var _ store.Canonicalizer = (*StarRotation)(nil)

// NewStarRotation builds the Zₙ canonicalizer for the star arbiter
// with n users.
func NewStarRotation(n int) (*StarRotation, error) {
	if n < 1 {
		return nil, fmt.Errorf("reduce: StarRotation needs n >= 1, got %d", n)
	}
	return &StarRotation{n: n}, nil
}

// Name implements store.Canonicalizer.
func (c *StarRotation) Name() string { return fmt.Sprintf("star-Z%d", c.n) }

// Canonical implements store.Canonicalizer.
func (c *StarRotation) Canonical(s ioa.State) ioa.State {
	ts, ok := s.(*ioa.TupleState)
	if !ok || ts.Len() != c.n+1 {
		return s
	}
	a3, ok := ts.At(0).(*ioa.TupleState)
	if !ok || a3.Len() != 2 {
		return s
	}
	p, ok := a3.At(0).(*dist.ProcState)
	if !ok {
		return s
	}
	return c.Apply(s, p.LastForward())
}

// Apply rotates s by r positions: result slot j holds old user
// (j+r) mod n, with the process state's requesting flags gathered the
// same way and lastForward shifted to match. Exported for the orbit
// fuzz target; states without the closed-star shape pass through
// unchanged.
func (c *StarRotation) Apply(s ioa.State, r int) ioa.State {
	ts, ok := s.(*ioa.TupleState)
	if !ok || ts.Len() != c.n+1 {
		return s
	}
	a3, ok := ts.At(0).(*ioa.TupleState)
	if !ok || a3.Len() != 2 {
		return s
	}
	p, ok := a3.At(0).(*dist.ProcState)
	if !ok {
		return s
	}
	r = ((r % c.n) + c.n) % c.n
	if r == 0 {
		return s
	}
	req := make([]bool, c.n)
	parts := make([]ioa.State, c.n+1)
	for j := 0; j < c.n; j++ {
		req[j] = p.Requesting((j + r) % c.n)
		parts[1+j] = ts.At(1 + (j+r)%c.n)
	}
	lf := ((p.LastForward()-r)%c.n + c.n) % c.n
	proc := dist.NewProcState(req, lf, p.Holding(), p.Requested())
	parts[0] = ioa.NewTupleState([]ioa.State{proc, a3.At(1)})
	return ioa.NewTupleState(parts)
}

// RingRotation is the cyclic group Zₙ on the closed LeLann token ring
// (component 0 the hidden ring composite of n processes, components
// 1..n the users, as built by ioasim -system ring). Canonical returns
// the lexicographically least of the n rotations, rotating ring
// processes and their attached users together. Exact: the orbit of s
// is exactly its n rotations, and the minimum is rotation-invariant.
type RingRotation struct {
	n int
}

var _ store.Canonicalizer = (*RingRotation)(nil)

// NewRingRotation builds the Zₙ canonicalizer for a ring of n
// processes/users.
func NewRingRotation(n int) (*RingRotation, error) {
	if n < 1 {
		return nil, fmt.Errorf("reduce: RingRotation needs n >= 1, got %d", n)
	}
	return &RingRotation{n: n}, nil
}

// Name implements store.Canonicalizer.
func (c *RingRotation) Name() string { return fmt.Sprintf("ring-Z%d", c.n) }

// Canonical implements store.Canonicalizer.
func (c *RingRotation) Canonical(s ioa.State) ioa.State {
	best := s
	for k := 1; k < c.n; k++ {
		if cand := c.Apply(s, k); cand.Key() < best.Key() {
			best = cand
		}
	}
	return best
}

// Apply rotates s by k positions: result slot j holds old process
// (j+k) mod n and old user (j+k) mod n. Exported for the orbit fuzz
// target; states without the closed-ring shape pass through unchanged.
func (c *RingRotation) Apply(s ioa.State, k int) ioa.State {
	ts, ok := s.(*ioa.TupleState)
	if !ok || ts.Len() != c.n+1 {
		return s
	}
	ring, ok := ts.At(0).(*ioa.TupleState)
	if !ok || ring.Len() != c.n {
		return s
	}
	k = ((k % c.n) + c.n) % c.n
	if k == 0 {
		return s
	}
	procs := make([]ioa.State, c.n)
	parts := make([]ioa.State, c.n+1)
	for j := 0; j < c.n; j++ {
		procs[j] = ring.At((j + k) % c.n)
		parts[1+j] = ts.At(1 + (j+k)%c.n)
	}
	parts[0] = ioa.NewTupleState(procs)
	return ioa.NewTupleState(parts)
}

// DijkstraShift is the cyclic group Z_K acting on Dijkstra's K-state
// ring by adding a constant to every counter mod K. Adding c commutes
// with every move (both privileges compare counters for equality), so
// the action is an automorphism; it is free (only c=0 has fixed
// points), and exactly one orbit member has machine 0's counter at 0 —
// that member is the canonical representative. Privilege counts, the
// legitimacy predicate, and rounds-to-legitimacy are all
// shift-invariant, which is what keeps stabilize.Certify's convergence
// bound k identical under this quotient (pinned by the property test).
type DijkstraShift struct {
	k int
}

var _ store.Canonicalizer = (*DijkstraShift)(nil)

// NewDijkstraShift builds the Z_K canonicalizer for counter modulus k.
func NewDijkstraShift(k int) (*DijkstraShift, error) {
	if k < 1 {
		return nil, fmt.Errorf("reduce: DijkstraShift needs K >= 1, got %d", k)
	}
	return &DijkstraShift{k: k}, nil
}

// Name implements store.Canonicalizer.
func (c *DijkstraShift) Name() string { return fmt.Sprintf("dijkstra-Z%d", c.k) }

// Canonical implements store.Canonicalizer.
func (c *DijkstraShift) Canonical(s ioa.State) ioa.State {
	ds, ok := s.(*ring.DijkstraState)
	if !ok || ds.Len() == 0 {
		return s
	}
	return c.Apply(s, -ds.Val(0))
}

// Apply adds shift to every counter mod K. Exported for the orbit
// fuzz target; non-Dijkstra states pass through unchanged.
func (c *DijkstraShift) Apply(s ioa.State, shift int) ioa.State {
	ds, ok := s.(*ring.DijkstraState)
	if !ok {
		return s
	}
	shift = ((shift % c.k) + c.k) % c.k
	if shift == 0 {
		return s
	}
	vals := ds.Vals()
	for i, v := range vals {
		vals[i] = (v + shift) % c.k
	}
	return ring.NewDijkstraState(vals)
}
