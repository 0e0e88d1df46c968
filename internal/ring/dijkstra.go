package ring

// Dijkstra's K-state self-stabilizing token ring (EWD 391: "Self-
// stabilizing systems in spite of distributed control"), the canonical
// worked example for the stabilize certifier. n machines hold counters
// x[0..n-1] in Z_K. The bottom machine 0 is privileged when its
// counter equals its predecessor's (x[0] == x[n-1]) and moves by
// incrementing mod K; every other machine i is privileged when its
// counter differs from its predecessor's (x[i] != x[i-1]) and moves by
// copying it. A state is legitimate when exactly one machine is
// privileged — the privilege is then the circulating token. From any
// of the K^n states at least one machine is privileged (no deadlock),
// legitimacy is closed under moves, and for K >= n every execution
// converges to legitimacy — properties this repo certifies by model
// checking (internal/stabilize) rather than assuming: the certifier
// measures the exact worst-case convergence bound, and exhibits the
// fair counterexample cycles that appear when K is too small.

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/domain"
	"repro/internal/ioa"
)

// DijkstraState is a counter vector. Immutable; With derives
// modifications.
type DijkstraState struct {
	vals []int
	key  string
}

var _ ioa.State = (*DijkstraState)(nil)

// NewDijkstraState builds a state from a copy of vals.
func NewDijkstraState(vals []int) *DijkstraState {
	v := append([]int(nil), vals...)
	var b strings.Builder
	for i, x := range v {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.Itoa(x))
	}
	return &DijkstraState{vals: v, key: b.String()}
}

// Key implements ioa.State.
func (s *DijkstraState) Key() string { return s.key }

// Len returns the machine count.
func (s *DijkstraState) Len() int { return len(s.vals) }

// Val returns machine i's counter.
func (s *DijkstraState) Val(i int) int { return s.vals[i] }

// Vals returns a copy of the counter vector.
func (s *DijkstraState) Vals() []int { return append([]int(nil), s.vals...) }

// With returns the state with machine i's counter set to v.
func (s *DijkstraState) With(i, v int) *DijkstraState {
	next := append([]int(nil), s.vals...)
	next[i] = v
	return NewDijkstraState(next)
}

// Move names machine i's move action.
func Move(i int) ioa.Action { return ioa.Act("move", itoa(i)) }

// A DijkstraRing bundles the ring automaton with its legitimacy
// structure.
type DijkstraRing struct {
	// N is the machine count, K the counter modulus.
	N, K int
	// Auto is the ring automaton: internal moves only, one fairness
	// class m<i> per machine (each machine is its own process; the
	// interleaving scheduler is Dijkstra's central daemon).
	Auto *ioa.Prog
}

// NewDijkstra builds an n-machine ring over Z_K counters, started at
// the all-zeros (legitimate) state. Stabilization from arbitrary
// corruption is a property to certify, not a given: Dijkstra's
// argument needs K >= n, and the certifier finds genuine fair
// divergence cycles for small K.
func NewDijkstra(n, k int) (*DijkstraRing, error) {
	if n < 2 {
		return nil, fmt.Errorf("ring: dijkstra ring needs at least 2 machines, got %d", n)
	}
	if k < 2 {
		return nil, fmt.Errorf("ring: dijkstra ring needs modulus K >= 2, got %d", k)
	}
	d := ioa.NewDef("Dijkstra(n=" + itoa(n) + ",K=" + itoa(k) + ")")
	d.Start(NewDijkstraState(make([]int, n)))
	d.Internal(Move(0), "m0",
		func(st ioa.State) bool {
			s := st.(*DijkstraState)
			return s.vals[0] == s.vals[n-1]
		},
		func(st ioa.State) ioa.State {
			s := st.(*DijkstraState)
			return s.With(0, (s.vals[0]+1)%k)
		})
	for i := 1; i < n; i++ {
		i := i
		d.Internal(Move(i), "m"+itoa(i),
			func(st ioa.State) bool {
				s := st.(*DijkstraState)
				return s.vals[i] != s.vals[i-1]
			},
			func(st ioa.State) ioa.State {
				s := st.(*DijkstraState)
				return s.With(i, s.vals[i-1])
			})
	}
	return &DijkstraRing{N: n, K: k, Auto: d.MustBuild()}, nil
}

// privileged reports whether machine i holds a privilege in s.
func (s *DijkstraState) privileged(i int) bool {
	if i == 0 {
		return s.vals[0] == s.vals[len(s.vals)-1]
	}
	return s.vals[i] != s.vals[i-1]
}

// Privileged returns the indices of privileged machines in st.
func (r *DijkstraRing) Privileged(st ioa.State) []int {
	s, ok := st.(*DijkstraState)
	if !ok || len(s.vals) != r.N {
		return nil
	}
	var out []int
	for i := 0; i < r.N; i++ {
		if s.privileged(i) {
			out = append(out, i)
		}
	}
	return out
}

// PrivilegedCount is len(Privileged(st)) without building the index
// list: the predicates induction evaluates on every one of the K^n
// states need only the count.
func (r *DijkstraRing) PrivilegedCount(st ioa.State) int {
	s, ok := st.(*DijkstraState)
	if !ok || len(s.vals) != r.N {
		return 0
	}
	n := 0
	for i := 0; i < r.N; i++ {
		if s.privileged(i) {
			n++
		}
	}
	return n
}

// Legit reports the legitimacy predicate: exactly one machine is
// privileged.
func (r *DijkstraRing) Legit(st ioa.State) bool {
	return r.PrivilegedCount(st) == 1
}

// StateDomain streams every one of the K^n counter vectors in
// odometer order — the full corruption envelope, and the candidate
// space for inductive certification. The product never materializes:
// spaces far beyond what the certifier's graphs could hold (16.7M
// states at n=K=8) walk in O(1) memory.
func (r *DijkstraRing) StateDomain() domain.Domain {
	card := make([]int, r.N)
	for i := range card {
		card[i] = r.K
	}
	d, err := domain.Product("all-corruptions", card,
		func(digits []int) ioa.State { return NewDijkstraState(digits) },
		func(s ioa.State) bool {
			ds, ok := s.(*DijkstraState)
			if !ok || len(ds.vals) != r.N {
				return false
			}
			for _, v := range ds.vals {
				if v < 0 || v >= r.K {
					return false
				}
			}
			return true
		})
	if err != nil {
		panic(err) // unreachable: N >= 2 enforced by NewDijkstra
	}
	return d
}
