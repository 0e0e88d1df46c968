package mutex

// The inductive invariant for Lamport's mutex, as a conjunct lattice
// (internal/lattice): Inv == TypeOK ∧ Mutex ∧ CritOK ∧ AckOwn ∧
// ClockOK ∧ ChanOK ∧ StageOK ∧ PostAckReq ∧ ReqAfterAck ∧ CritBeats.
// Mutual exclusion (Mutex) alone is true but nowhere near inductive:
// the rest of the conjunction pins down the request/ack/release
// handshake tightly enough that from any state satisfying Inv, no
// enter step can create a second critical process — the enter guard
// contradicts CritBeats through the recorded-stamp equalities of
// StageOK. Each lemma was found the way the induct package intends:
// run Check, read the CTI, conjoin the lemma that refutes its
// pre-state.

import (
	"fmt"

	"repro/internal/domain"
	"repro/internal/ioa"
	"repro/internal/lattice"
)

// state narrows a domain state; the lemmas below assume the shape
// TypeOK enforces, so conjunction order matters: keep TypeOK first.
func (l *Lamport) state(st ioa.State) (*LamportState, bool) {
	s, ok := st.(*LamportState)
	return s, ok && s.n == l.N
}

// chanCounts counts the request, release, and ack messages in a
// channel.
func chanCounts(ch []byte) (nreq, nrel, nack int) {
	for _, m := range ch {
		switch {
		case m == lampAck:
			nack++
		case m == lampRel:
			nrel++
		default:
			nreq++
		}
	}
	return
}

func hasMsg(ch []byte, pred func(byte) bool) bool {
	for _, m := range ch {
		if pred(m) {
			return true
		}
	}
	return false
}

func isReq(m byte) bool { return m >= lampReq(1) }

// prec reports (c1, p1) ≺ (c2, p2) in stamp-then-id order.
func prec(c1, p1, c2, p2 int) bool {
	return c1 < c2 || (c1 == c2 && p1 < p2)
}

// The TypeOK domain's digit layout, the one place Domain (which builds
// states from digits) and the lemmas' Reads declarations agree on it:
// process p owns the N+3 digits from p·(N+3) — clock, its N records,
// ack mask, crit flag — and the N·(N−1) channel digits come last, so
// a lemma that ignores channels is decided before their fan-out.
func (l *Lamport) clockDigit(p int) int  { return p * (l.N + 3) }
func (l *Lamport) recDigit(p, q int) int { return p*(l.N+3) + 1 + q }
func (l *Lamport) ackDigit(p int) int    { return p*(l.N+3) + 1 + l.N }
func (l *Lamport) critDigit(p int) int   { return p*(l.N+3) + 2 + l.N }

// chanDigit is the digit of the channel p→q (p ≠ q).
func (l *Lamport) chanDigit(p, q int) int {
	if q > p {
		q--
	}
	return l.N*(l.N+3) + p*(l.N-1) + q
}

// recDigits lists the digits of all of p's records.
func (l *Lamport) recDigits(p int) []int {
	out := make([]int, l.N)
	for q := range out {
		out[q] = l.recDigit(p, q)
	}
	return out
}

// reads is a lemma's read-set declaration: the digits pick names,
// over every process.
func (l *Lamport) reads(pick func(p int) []int) []int {
	var out []int
	for p := 0; p < l.N; p++ {
		out = append(out, pick(p)...)
	}
	return out
}

// TypeOK bounds every component: clocks in 1..M, stamps in 0..M, ack
// masks within the process set, channels within capacity carrying
// well-formed messages.
func (l *Lamport) TypeOK() lattice.Lemma {
	return lattice.L("TypeOK", func(st ioa.State) bool {
		s, ok := l.state(st)
		if !ok || len(s.clock) != l.N || len(s.req) != l.N*l.N ||
			len(s.ack) != l.N || len(s.crit) != l.N || len(s.net) != l.N*l.N {
			return false
		}
		for p := 0; p < l.N; p++ {
			if s.clock[p] < 1 || s.clock[p] > l.MaxClock {
				return false
			}
			if s.ack[p] > l.fullMask() {
				return false
			}
			for q := 0; q < l.N; q++ {
				if r := s.Rec(p, q); r < 0 || r > l.MaxClock {
					return false
				}
				ch := s.Chan(p, q)
				if p == q {
					if len(ch) != 0 {
						return false
					}
					continue
				}
				if len(ch) > l.Cap {
					return false
				}
				for _, m := range ch {
					if m < lampAck || m > lampReq(l.MaxClock) {
						return false
					}
				}
			}
		}
		return true
	})
}

// MutexLemma is the certified property: at most one process in crit.
func (l *Lamport) MutexLemma() lattice.Lemma {
	reads := l.reads(func(p int) []int { return []int{l.critDigit(p)} })
	return lattice.Lemma{Name: "Mutex", Reads: reads, Pred: func(st ioa.State) bool {
		s, ok := l.state(st)
		if !ok {
			return false
		}
		return l.InCrit(s) <= 1
	}}
}

// CritOK: a critical process holds an outstanding request and every
// ack.
func (l *Lamport) CritOK() lattice.Lemma {
	reads := l.reads(func(p int) []int { return []int{l.recDigit(p, p), l.ackDigit(p), l.critDigit(p)} })
	return lattice.Lemma{Name: "CritOK", Reads: reads, Pred: func(st ioa.State) bool {
		s, ok := l.state(st)
		if !ok {
			return false
		}
		for p := 0; p < l.N; p++ {
			if s.crit[p] && (s.Rec(p, p) == 0 || s.ack[p] != l.fullMask()) {
				return false
			}
		}
		return true
	}}
}

// AckOwn: the ack mask is empty exactly outside a request, and a
// requester holds its own ack bit.
func (l *Lamport) AckOwn() lattice.Lemma {
	reads := l.reads(func(p int) []int { return []int{l.recDigit(p, p), l.ackDigit(p)} })
	return lattice.Lemma{Name: "AckOwn", Reads: reads, Pred: func(st ioa.State) bool {
		s, ok := l.state(st)
		if !ok {
			return false
		}
		for p := 0; p < l.N; p++ {
			if s.Rec(p, p) == 0 && s.ack[p] != 0 {
				return false
			}
			if s.Rec(p, p) > 0 && s.ack[p]&(1<<uint(p)) == 0 {
				return false
			}
		}
		return true
	}}
}

// ClockOK: a process's clock dominates its stamps — its own stamp
// (taken from the clock) and strictly every foreign record (the
// receive bumped past it).
func (l *Lamport) ClockOK() lattice.Lemma {
	reads := l.reads(func(p int) []int { return append(l.recDigits(p), l.clockDigit(p)) })
	return lattice.Lemma{Name: "ClockOK", Reads: reads, Pred: func(st ioa.State) bool {
		s, ok := l.state(st)
		if !ok {
			return false
		}
		for p := 0; p < l.N; p++ {
			if s.Rec(p, p) > s.clock[p] {
				return false
			}
			for q := 0; q < l.N; q++ {
				if q != p && s.Rec(p, q) >= s.clock[p] && s.Rec(p, q) > 0 {
					return false
				}
			}
		}
		return true
	}}
}

// ChanOK is the per-channel send discipline: at most one of each
// message kind in flight, releases precede requests, and an in-flight
// request carries the sender's current stamp (and implies the sender
// is requesting; conversely a requester with a pending release has
// its request queued behind it).
func (l *Lamport) ChanOK() lattice.Lemma {
	return lattice.L("ChanOK", func(st ioa.State) bool {
		s, ok := l.state(st)
		if !ok {
			return false
		}
		for p := 0; p < l.N; p++ {
			for q := 0; q < l.N; q++ {
				if q == p {
					continue
				}
				ch := s.Chan(p, q)
				nreq, nrel, nack := chanCounts(ch)
				if nreq > 1 || nrel > 1 || nack > 1 {
					return false
				}
				relAt, reqAt := -1, -1
				for i, m := range ch {
					if m == lampRel {
						relAt = i
					} else if isReq(m) {
						reqAt = i
					}
				}
				if relAt >= 0 && reqAt >= 0 && relAt > reqAt {
					return false
				}
				if reqAt >= 0 {
					if c := int(ch[reqAt]) - 2; s.Rec(p, p) != c {
						return false
					}
				}
				if relAt >= 0 && s.Rec(p, p) > 0 && reqAt < 0 {
					return false
				}
			}
		}
		return true
	})
}

// StageOK is the request-handshake state machine per ordered pair
// (p, q): while p requests, exactly one of (its request is in flight
// to q) / (q's ack is in flight back) / (p holds q's ack); in the
// latter two stages q's record of p equals p's stamp. An in-flight
// ack implies the matching request is outstanding; a stale record
// (requester gone) implies the release is still in flight; a fresh
// request in flight with no release ahead of it implies the record
// is clear.
func (l *Lamport) StageOK() lattice.Lemma {
	return lattice.L("StageOK", func(st ioa.State) bool {
		s, ok := l.state(st)
		if !ok {
			return false
		}
		for p := 0; p < l.N; p++ {
			for q := 0; q < l.N; q++ {
				if q == p {
					continue
				}
				reqFly := hasMsg(s.Chan(p, q), isReq)
				relFly := hasMsg(s.Chan(p, q), func(m byte) bool { return m == lampRel })
				ackFly := hasMsg(s.Chan(q, p), func(m byte) bool { return m == lampAck })
				got := s.ack[p]&(1<<uint(q)) != 0
				own := s.Rec(p, p)
				if ackFly && own == 0 {
					return false // AckPend: acks answer live requests
				}
				if own > 0 {
					n := 0
					for _, b := range []bool{reqFly, ackFly, got} {
						if b {
							n++
						}
					}
					if n != 1 {
						return false
					}
					if (ackFly || got) && s.Rec(q, p) != own {
						return false
					}
				}
				if own == 0 && s.Rec(q, p) > 0 && !relFly {
					return false // RelPend: stale record ⇒ release in flight
				}
				if reqFly && !relFly && s.Rec(q, p) != 0 {
					return false // fresh request ⇒ record already cleared
				}
			}
		}
		return true
	})
}

// PostAckReq: once p holds q's ack, any request from q still in
// flight to p was stamped after q bumped past p's stamp — so it
// strictly exceeds it. This is what keeps CritBeats stable while new
// requests arrive at a critical process.
func (l *Lamport) PostAckReq() lattice.Lemma {
	return lattice.L("PostAckReq", func(st ioa.State) bool {
		s, ok := l.state(st)
		if !ok {
			return false
		}
		for p := 0; p < l.N; p++ {
			own := s.Rec(p, p)
			if own == 0 {
				continue
			}
			for q := 0; q < l.N; q++ {
				if q == p || s.ack[p]&(1<<uint(q)) == 0 {
					continue
				}
				for _, m := range s.Chan(q, p) {
					if isReq(m) && int(m)-2 <= own {
						return false
					}
				}
			}
		}
		return true
	})
}

// ReqAfterAck: a request queued behind an ack in the same channel was
// sent after the ack — after the sender bumped past the stamp the ack
// answers. (Vacuous at Cap=1; load-bearing for larger channels.)
func (l *Lamport) ReqAfterAck() lattice.Lemma {
	return lattice.L("ReqAfterAck", func(st ioa.State) bool {
		s, ok := l.state(st)
		if !ok {
			return false
		}
		for p := 0; p < l.N; p++ {
			own := s.Rec(p, p)
			for q := 0; q < l.N; q++ {
				if q == p {
					continue
				}
				ch := s.Chan(q, p)
				seenAck := false
				for _, m := range ch {
					if m == lampAck {
						seenAck = true
					} else if seenAck && isReq(m) && int(m)-2 <= own {
						return false
					}
				}
			}
		}
		return true
	})
}

// CritBeats: a critical process beats every request it has recorded —
// the enter guard, frozen into an invariant so it persists while new
// (necessarily later-stamped, by PostAckReq) requests arrive.
func (l *Lamport) CritBeats() lattice.Lemma {
	reads := l.reads(func(p int) []int { return append(l.recDigits(p), l.critDigit(p)) })
	return lattice.Lemma{Name: "CritBeats", Reads: reads, Pred: func(st ioa.State) bool {
		s, ok := l.state(st)
		if !ok {
			return false
		}
		for p := 0; p < l.N; p++ {
			if !s.crit[p] {
				continue
			}
			for q := 0; q < l.N; q++ {
				if q == p || s.Rec(p, q) == 0 {
					continue
				}
				if !prec(s.Rec(p, p), p, s.Rec(p, q), q) {
					return false
				}
			}
		}
		return true
	}}
}

// Lemmas returns the strengthening library in discovery order.
func (l *Lamport) Lemmas() []lattice.Lemma {
	return []lattice.Lemma{
		l.CritOK(), l.AckOwn(), l.ClockOK(), l.ChanOK(),
		l.StageOK(), l.PostAckReq(), l.ReqAfterAck(), l.CritBeats(),
	}
}

// Inv returns the full inductive conjunction.
func (l *Lamport) Inv() *lattice.Conjunction {
	c := lattice.Conj("Inv", l.TypeOK(), l.MutexLemma())
	for _, lem := range l.Lemmas() {
		c = c.With(lem)
	}
	return c
}

// chanCard is the number of channel contents: sequences of length
// 0..C over M+2 message kinds.
func (l *Lamport) chanCard() int {
	base := l.MaxClock + 2
	card, pow := 0, 1
	for i := 0; i <= l.Cap; i++ {
		card += pow
		pow *= base
	}
	return card
}

// decodeChan expands a channel digit: lengths first, then
// lexicographic within a length.
func (l *Lamport) decodeChan(d int) []byte {
	base := l.MaxClock + 2
	length, off, cnt := 0, 0, 1
	for d >= off+cnt {
		off += cnt
		cnt *= base
		length++
	}
	if length == 0 {
		return nil
	}
	idx := d - off
	ch := make([]byte, length)
	for i := length - 1; i >= 0; i-- {
		k := idx % base
		idx /= base
		switch k {
		case 0:
			ch[i] = lampAck
		case 1:
			ch[i] = lampRel
		default:
			ch[i] = lampReq(k - 1)
		}
	}
	return ch
}

// domainCard gives the cardinality of every digit of the layout.
func (l *Lamport) domainCard() []int {
	n := l.N
	card := make([]int, n*(n+3)+n*(n-1))
	for p := 0; p < n; p++ {
		card[l.clockDigit(p)] = l.MaxClock // clock-1
		card[l.ackDigit(p)] = int(l.fullMask()) + 1
		card[l.critDigit(p)] = 2
		for q := 0; q < n; q++ {
			card[l.recDigit(p, q)] = l.MaxClock + 1
			if q != p {
				card[l.chanDigit(p, q)] = l.chanCard()
			}
		}
	}
	return card
}

// domainState builds the state a digit vector of the layout names.
func (l *Lamport) domainState(digits []int) ioa.State {
	n := l.N
	s := &LamportState{
		n:     n,
		clock: make([]int, n),
		req:   make([]int, n*n),
		ack:   make([]uint, n),
		crit:  make([]bool, n),
		net:   make([][]byte, n*n),
	}
	for p := 0; p < n; p++ {
		s.clock[p] = digits[l.clockDigit(p)] + 1
		s.ack[p] = uint(digits[l.ackDigit(p)])
		s.crit[p] = digits[l.critDigit(p)] == 1
		for q := 0; q < n; q++ {
			s.req[p*n+q] = digits[l.recDigit(p, q)]
			if q != p {
				s.net[p*n+q] = l.decodeChan(digits[l.chanDigit(p, q)])
			}
		}
	}
	return s.finalize()
}

// Domain streams every TypeOK-shaped state — the candidate space for
// inductive certification. Its size is (M·(M+1)^N·2^N·2)^N ·
// chanCard^(N·(N-1)): 518,400 at (N=2, M=2, C=1), 9.1M at C=2 —
// walked without ever being materialized.
func (l *Lamport) Domain() domain.Domain {
	d, err := domain.Product(fmt.Sprintf("lamport-typeok(n=%d,M=%d,C=%d)", l.N, l.MaxClock, l.Cap),
		l.domainCard(), l.domainState, l.TypeOK().Pred)
	if err != nil {
		panic(err) // unreachable: N >= 2 enforced by NewLamport
	}
	return d
}
