// Package grid provides the scale harness for external-memory and
// distributed exploration: a k-digit base-m counter automaton with
// exactly m^k reachable states, a trivially decodable one-byte-per-
// digit canonical encoding, and a closed-form census (states, depth,
// deadlocks) to pin large runs against.
//
// The automaton has one internal action per digit position, inc<i>,
// which increments digit i when it is below m-1 (no wraparound). From
// the all-zeros start state every digit vector is reachable, the BFS
// depth of a vector is the sum of its digits, and the unique all-
// (m-1)s vector is the only deadlock. m=10, k=8 is the 10⁸-state
// configuration EXPERIMENTS.md E23 runs under a fixed RAM cap; small
// shapes (m=3, k=3) differentially pin the implementation against
// ReferenceReach.
//
// States are ioa.KeyState values whose key bytes are the raw digits,
// so the canonical encoding is the key itself and Decode is a cast —
// the shape external Census and the cluster protocol need.
package grid

import (
	"fmt"

	"repro/internal/ioa"
)

// Grid is the k-digit base-m counter automaton.
type Grid struct {
	m, k  int
	name  string
	sig   ioa.Signature
	acts  []ioa.Action // acts[i] increments digit i
	parts []ioa.Class
}

// New builds the k-digit base-m grid. Both dimensions must be at
// least 1; m is capped at 256 because a digit is one key byte.
func New(m, k int) (*Grid, error) {
	if m < 1 || m > 256 || k < 1 {
		return nil, fmt.Errorf("grid: need 1 ≤ m ≤ 256 and k ≥ 1, got m=%d k=%d", m, k)
	}
	acts := make([]ioa.Action, k)
	for i := range acts {
		acts[i] = ioa.Action(fmt.Sprintf("inc%d", i))
	}
	sig := ioa.MustSignature(nil, nil, acts)
	parts := []ioa.Class{{Name: "counter", Actions: ioa.NewSet(acts...)}}
	return &Grid{
		m:    m,
		k:    k,
		name: fmt.Sprintf("grid-%dx%d", m, k),
		sig:  sig,
		acts: acts, parts: parts,
	}, nil
}

// States returns the closed-form state count m^k.
func (g *Grid) States() int64 {
	n := int64(1)
	for i := 0; i < g.k; i++ {
		n *= int64(g.m)
	}
	return n
}

// Depth returns the closed-form BFS depth k·(m-1).
func (g *Grid) Depth() int64 { return int64(g.k) * int64(g.m-1) }

// Name implements ioa.Automaton.
func (g *Grid) Name() string { return g.name }

// Sig implements ioa.Automaton.
func (g *Grid) Sig() ioa.Signature { return g.sig }

// Start implements ioa.Automaton: the all-zeros vector.
func (g *Grid) Start() []ioa.State {
	return []ioa.State{ioa.KeyState(make([]byte, g.k))}
}

// digit returns digit i of s, or -1 when s is not a grid state.
func (g *Grid) digit(s ioa.State, i int) int {
	key := s.Key()
	if len(key) != g.k {
		return -1
	}
	return int(key[i])
}

// actIndex resolves an inc<i> action to its digit position, or -1.
func (g *Grid) actIndex(a ioa.Action) int {
	for i, act := range g.acts {
		if act == a {
			return i
		}
	}
	return -1
}

// Next implements ioa.Automaton: at most one successor, the digit
// incremented, yielded without a slice — the path the 10⁸-state walks
// take.
func (g *Grid) Next(_ *ioa.Scratch, s ioa.State, a ioa.Action, yield func(ioa.State) bool) bool {
	i := g.actIndex(a)
	if i < 0 {
		return true
	}
	d := g.digit(s, i)
	if d < 0 || d >= g.m-1 {
		return true
	}
	key := []byte(s.Key())
	key[i]++
	return yield(ioa.KeyState(key))
}

// Enabled implements ioa.Automaton: the increments of digits below
// m-1.
func (g *Grid) Enabled(s ioa.State) []ioa.Action {
	out := make([]ioa.Action, 0, g.k)
	for i, act := range g.acts {
		if d := g.digit(s, i); d >= 0 && d < g.m-1 {
			out = append(out, act)
		}
	}
	return out
}

// Parts implements ioa.Automaton.
func (g *Grid) Parts() []ioa.Class { return g.parts }

// Decode rebuilds a grid state from its canonical encoding (the digit
// bytes) — the Options.Decode hook for external Census and the
// cluster workers.
func (g *Grid) Decode(enc []byte) (ioa.State, error) {
	if len(enc) != g.k {
		return nil, fmt.Errorf("grid: encoding is %d bytes, want %d", len(enc), g.k)
	}
	for i, d := range enc {
		if int(d) >= g.m {
			return nil, fmt.Errorf("grid: digit %d is %d, want < %d", i, d, g.m)
		}
	}
	return ioa.KeyState(enc), nil
}

var _ ioa.Automaton = (*Grid)(nil)
