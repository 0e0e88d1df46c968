package mutex

// Lamport's distributed mutual-exclusion algorithm ("Time, Clocks,
// and the Ordering of Events in a Distributed System", CACM 1978,
// §3), bounded for finite-state certification: N processes, logical
// clocks capped at MaxClock, FIFO channels capped at Cap messages.
// Each process stamps its request with its clock, broadcasts it,
// and enters the critical section once every other process has
// acknowledged and its own (stamp, id) pair lexicographically beats
// every recorded foreign request. Boundedness is by guard, not by
// clamping: a receive that would push a clock past MaxClock and a
// send into a full channel are disabled, never truncated — clamping
// the clock would break the stamp ordering that mutual exclusion
// rests on, silently, at exactly the states a small-model search
// would miss. The saturated system may deadlock; for the safety-only
// inductive certification this automaton exists for, that is the
// correct trade.
//
// This is the induct package's headline workload: the full candidate
// domain at N=2, MaxClock=2, Cap=1 has 518,400 states — twenty times
// the largest graph the reachability engines have materialized — and
// the inductive invariant Inv (a ten-conjunct lattice conjunction,
// see Lemmas) certifies mutual exclusion over it by streaming, in
// O(1) resident memory, without ever building a frontier.

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ioa"
)

// Channel message bytes. Requests carry their stamp: req(c) = 2+c.
const (
	lampAck = 1
	lampRel = 2
)

// lampReq encodes a request stamped c.
func lampReq(c int) byte { return byte(2 + c) }

// LamportState is the global state: clocks, request records, ack
// bitmasks, critical-section flags, and the N·(N-1) FIFO channels.
// Immutable; transitions derive fresh states.
type LamportState struct {
	n     int
	clock []int    // clock[p] ∈ 1..M
	req   []int    // req[p*n+q]: p's record of q's stamp; diagonal = own stamp; 0 = none
	ack   []uint   // ack[p]: bitmask of processes whose ack p holds (own bit set on request)
	crit  []bool   // crit[p]: p is in its critical section
	net   [][]byte // net[p*n+q]: FIFO p→q, head first; diagonal unused
	key   string
}

var _ ioa.State = (*LamportState)(nil)

// Key implements ioa.State.
func (s *LamportState) Key() string { return s.key }

// N returns the process count.
func (s *LamportState) N() int { return s.n }

// Rec returns p's record of q's request stamp (own stamp when q==p;
// 0 when none).
func (s *LamportState) Rec(p, q int) int { return s.req[p*s.n+q] }

// Crit reports whether p is in its critical section.
func (s *LamportState) Crit(p int) bool { return s.crit[p] }

// Chan returns the FIFO p→q, head first (not a copy; do not mutate).
func (s *LamportState) Chan(p, q int) []byte { return s.net[p*s.n+q] }

// clone deep-copies everything but the key (finalize rebuilds it).
func (s *LamportState) clone() *LamportState {
	c := &LamportState{
		n:     s.n,
		clock: append([]int(nil), s.clock...),
		req:   append([]int(nil), s.req...),
		ack:   append([]uint(nil), s.ack...),
		crit:  append([]bool(nil), s.crit...),
		net:   make([][]byte, len(s.net)),
	}
	for i, ch := range s.net {
		if len(ch) > 0 {
			c.net[i] = append([]byte(nil), ch...)
		}
	}
	return c
}

// finalize computes the canonical key and returns the state.
func (s *LamportState) finalize() *LamportState {
	var b strings.Builder
	for p := 0; p < s.n; p++ {
		if p > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.Itoa(s.clock[p]))
	}
	b.WriteByte('|')
	for i, r := range s.req {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.Itoa(r))
	}
	b.WriteByte('|')
	for p := 0; p < s.n; p++ {
		if p > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.FormatUint(uint64(s.ack[p]), 10))
		if s.crit[p] {
			b.WriteByte('*')
		}
	}
	b.WriteByte('|')
	for i, ch := range s.net {
		if i > 0 {
			b.WriteByte(';')
		}
		for j, m := range ch {
			if j > 0 {
				b.WriteByte('.')
			}
			b.WriteString(strconv.Itoa(int(m)))
		}
	}
	s.key = b.String()
	return s
}

// Action constructors.
func LampRequest(p int) ioa.Action   { return ioa.Act("request", strconv.Itoa(p)) }
func LampEnter(p int) ioa.Action     { return ioa.Act("enter", strconv.Itoa(p)) }
func LampExit(p int) ioa.Action      { return ioa.Act("exit", strconv.Itoa(p)) }
func LampRcvReq(p, q int) ioa.Action { return ioa.Act("rcvreq", strconv.Itoa(p), strconv.Itoa(q)) }
func LampRcvAck(p, q int) ioa.Action { return ioa.Act("rcvack", strconv.Itoa(p), strconv.Itoa(q)) }
func LampRcvRel(p, q int) ioa.Action { return ioa.Act("rcvrel", strconv.Itoa(p), strconv.Itoa(q)) }

// A Lamport bundles the bounded automaton with its parameters.
type Lamport struct {
	// N is the process count, MaxClock the clock bound M, Cap the
	// per-channel capacity C.
	N, MaxClock, Cap int
	// Auto is the automaton: internal actions only, one fairness
	// class per process.
	Auto *ioa.Prog
}

// NewLamport builds the bounded Lamport mutex automaton.
func NewLamport(n, maxClock, cap int) (*Lamport, error) {
	if n < 2 {
		return nil, fmt.Errorf("mutex: lamport needs at least 2 processes, got %d", n)
	}
	if maxClock < 2 {
		return nil, fmt.Errorf("mutex: lamport needs clock bound >= 2, got %d", maxClock)
	}
	if cap < 1 {
		return nil, fmt.Errorf("mutex: lamport needs channel capacity >= 1, got %d", cap)
	}
	l := &Lamport{N: n, MaxClock: maxClock, Cap: cap}
	start := &LamportState{
		n:     n,
		clock: make([]int, n),
		req:   make([]int, n*n),
		ack:   make([]uint, n),
		crit:  make([]bool, n),
		net:   make([][]byte, n*n),
	}
	for p := 0; p < n; p++ {
		start.clock[p] = 1
	}
	d := ioa.NewDef(fmt.Sprintf("Lamport(n=%d,M=%d,C=%d)", n, maxClock, cap))
	d.Start(start.finalize())
	for p := 0; p < n; p++ {
		p := p
		class := "p" + strconv.Itoa(p)
		d.Internal(LampRequest(p), class,
			func(st ioa.State) bool {
				s := st.(*LamportState)
				return s.Rec(p, p) == 0 && !s.crit[p] && l.hasSpace(s, p)
			},
			func(st ioa.State) ioa.State {
				s := st.(*LamportState).clone()
				stamp := s.clock[p]
				s.req[p*n+p] = stamp
				s.ack[p] = 1 << uint(p)
				for q := 0; q < n; q++ {
					if q != p {
						s.net[p*n+q] = append(s.net[p*n+q], lampReq(stamp))
					}
				}
				return s.finalize()
			})
		d.Internal(LampEnter(p), class,
			func(st ioa.State) bool {
				s := st.(*LamportState)
				if s.crit[p] || s.Rec(p, p) == 0 || s.ack[p] != l.fullMask() {
					return false
				}
				for q := 0; q < n; q++ {
					if q != p && !beats(s, p, q) {
						return false
					}
				}
				return true
			},
			func(st ioa.State) ioa.State {
				s := st.(*LamportState).clone()
				s.crit[p] = true
				return s.finalize()
			})
		d.Internal(LampExit(p), class,
			func(st ioa.State) bool {
				s := st.(*LamportState)
				return s.crit[p] && l.hasSpace(s, p)
			},
			func(st ioa.State) ioa.State {
				s := st.(*LamportState).clone()
				s.crit[p] = false
				s.req[p*n+p] = 0
				s.ack[p] = 0
				for q := 0; q < n; q++ {
					if q != p {
						s.net[p*n+q] = append(s.net[p*n+q], lampRel)
					}
				}
				return s.finalize()
			})
		for q := 0; q < n; q++ {
			if q == p {
				continue
			}
			q := q
			d.Internal(LampRcvReq(p, q), class,
				func(st ioa.State) bool {
					s := st.(*LamportState)
					ch := s.Chan(q, p)
					if len(ch) == 0 || ch[0] < lampReq(1) {
						return false
					}
					c := int(ch[0]) - 2
					// Guarded boundedness: the clock bump and the ack
					// send must both fit.
					return max(s.clock[p], c)+1 <= l.MaxClock && len(s.Chan(p, q)) < l.Cap
				},
				func(st ioa.State) ioa.State {
					s := st.(*LamportState).clone()
					c := int(s.net[q*n+p][0]) - 2
					s.net[q*n+p] = popHead(s.net[q*n+p])
					s.req[p*n+q] = c
					s.clock[p] = max(s.clock[p], c) + 1
					s.net[p*n+q] = append(s.net[p*n+q], lampAck)
					return s.finalize()
				})
			d.Internal(LampRcvAck(p, q), class,
				func(st ioa.State) bool {
					ch := st.(*LamportState).Chan(q, p)
					return len(ch) > 0 && ch[0] == lampAck
				},
				func(st ioa.State) ioa.State {
					s := st.(*LamportState).clone()
					s.net[q*n+p] = popHead(s.net[q*n+p])
					s.ack[p] |= 1 << uint(q)
					return s.finalize()
				})
			d.Internal(LampRcvRel(p, q), class,
				func(st ioa.State) bool {
					ch := st.(*LamportState).Chan(q, p)
					return len(ch) > 0 && ch[0] == lampRel
				},
				func(st ioa.State) ioa.State {
					s := st.(*LamportState).clone()
					s.net[q*n+p] = popHead(s.net[q*n+p])
					s.req[p*n+q] = 0
					return s.finalize()
				})
		}
	}
	l.Auto = d.MustBuild()
	return l, nil
}

func (l *Lamport) fullMask() uint { return (1 << uint(l.N)) - 1 }

// hasSpace reports whether p can broadcast: every outgoing channel
// has room for one message.
func (l *Lamport) hasSpace(s *LamportState, p int) bool {
	for q := 0; q < l.N; q++ {
		if q != p && len(s.Chan(p, q)) >= l.Cap {
			return false
		}
	}
	return true
}

// beats reports whether p's own request lexicographically precedes
// p's record of q's: (req[p][p], p) ≺ (req[p][q], q), vacuously when
// p holds no record of q.
func beats(s *LamportState, p, q int) bool {
	r := s.Rec(p, q)
	if r == 0 {
		return true
	}
	own := s.Rec(p, p)
	return own < r || (own == r && p < q)
}

func popHead(ch []byte) []byte {
	if len(ch) <= 1 {
		return nil
	}
	return append([]byte(nil), ch[1:]...)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// InCrit counts processes in their critical section (0 for foreign
// states).
func (l *Lamport) InCrit(st ioa.State) int {
	s, ok := st.(*LamportState)
	if !ok || s.n != l.N {
		return 0
	}
	cnt := 0
	for p := 0; p < l.N; p++ {
		if s.crit[p] {
			cnt++
		}
	}
	return cnt
}
