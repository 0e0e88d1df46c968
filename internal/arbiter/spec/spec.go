// Package spec implements A₁ and E₁ of §3.1: the top-level,
// set-theoretic specification of Schönhage's resource arbiter. A state
// is a set of requesting users and the identity of the current holder;
// the execution module E₁ adds the no-lockout condition C₁ =
// RtnRes₁ ⊃ GrRes₁.
package spec

import (
	"strings"

	"repro/internal/ioa"
	"repro/internal/proof"
)

// ArbiterName is the holder value denoting the arbiter itself (the
// paper's "a").
const ArbiterName = "a"

// State is a state of A₁: the set of requesting users and the holder
// (§3.1.1). It is immutable; mutators return copies.
type State struct {
	// requesters[i] reports whether user i is requesting.
	requesters []bool
	// holder is a user index, or -1 when the arbiter holds the
	// resource.
	holder int
	key    string
}

var _ ioa.State = (*State)(nil)

// NewState builds a spec state.
func NewState(requesters []bool, holder int) *State {
	s := &State{requesters: append([]bool(nil), requesters...), holder: holder}
	var b strings.Builder
	b.WriteString("req={")
	for i, r := range s.requesters {
		if r {
			b.WriteString(" ")
			b.WriteString(itoa(i))
		}
	}
	b.WriteString(" } holder=")
	b.WriteString(itoa(holder))
	s.key = b.String()
	return s
}

func itoa(i int) string {
	if i < 0 {
		return ArbiterName
	}
	const digits = "0123456789"
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = digits[i%10]
		i /= 10
	}
	return string(buf[pos:])
}

// Key implements ioa.State.
func (s *State) Key() string { return s.key }

// Requesting reports whether user u is in the requesters set.
func (s *State) Requesting(u int) bool { return s.requesters[u] }

// Holder returns the index of the user holding the resource, or -1
// when the arbiter holds it.
func (s *State) Holder() int { return s.holder }

// NumUsers returns the number of users.
func (s *State) NumUsers() int { return len(s.requesters) }

func (s *State) withRequest(u int, v bool) *State {
	req := append([]bool(nil), s.requesters...)
	req[u] = v
	return NewState(req, s.holder)
}

func (s *State) withHolder(h int) *State {
	return NewState(s.requesters, h)
}

// Users names the users of an arbiter instance; user i is Users[i].
type Users []string

// DefaultUsers generates user names u0..u(n-1).
func DefaultUsers(n int) Users {
	out := make(Users, n)
	for i := range out {
		out[i] = "u" + itoa(i)
	}
	return out
}

// Request is the input action request(u).
func Request(u string) ioa.Action { return ioa.Act("request", u) }

// Return is the input action return(u).
func Return(u string) ioa.Action { return ioa.Act("return", u) }

// Grant is the output action grant(u).
func Grant(u string) ioa.Action { return ioa.Act("grant", u) }

// New builds the automaton A₁ for the given users (Figure 3.1):
//
//	input request(u): requesters ← requesters ∪ {u}
//	input return(u):  if holder = u then holder ← a
//	output grant(u):  pre u ∈ requesters ∧ holder = a
//	                  eff requesters ← requesters − {u}; holder ← u
//
// All grant actions form a single fairness class (A₁ is primitive: it
// models the arbiter as one component).
func New(users Users) *ioa.Prog {
	d := ioa.NewDef("A1")
	d.Start(NewState(make([]bool, len(users)), -1))
	for i, u := range users {
		i := i
		d.Input(Request(u), func(s ioa.State) ioa.State {
			return s.(*State).withRequest(i, true)
		})
		d.Input(Return(u), func(s ioa.State) ioa.State {
			st := s.(*State)
			if st.holder == i {
				return st.withHolder(-1)
			}
			return st
		})
		d.Output(Grant(u), "arbiter",
			func(s ioa.State) bool {
				st := s.(*State)
				return st.requesters[i] && st.holder == -1
			},
			func(s ioa.State) ioa.State {
				return s.(*State).withRequest(i, false).withHolder(i)
			})
	}
	return d.MustBuild()
}

// RtnRes1 is the condition RtnRes₁(u): a user holding the resource
// eventually returns it (§3.1.3). This is a hypothesis about the
// environment.
func RtnRes1(users Users, u int) *proof.LeadsTo {
	return &proof.LeadsTo{
		Name: "RtnRes1(" + users[u] + ")",
		S:    func(s ioa.State) bool { return s.(*State).holder == u },
		T:    func(a ioa.Action) bool { return a == Return(users[u]) },
	}
}

// GrRes1 is the condition GrRes₁(u): a requesting user is eventually
// granted the resource.
func GrRes1(users Users, u int) *proof.LeadsTo {
	return &proof.LeadsTo{
		Name: "GrRes1(" + users[u] + ")",
		S:    func(s ioa.State) bool { return s.(*State).requesters[u] },
		T:    func(a ioa.Action) bool { return a == Grant(users[u]) },
	}
}

// E1 builds the execution module E₁: the executions of A₁ satisfying
// C₁ = RtnRes₁ ⊃ GrRes₁ (§3.1.3) — if holders always return the
// resource, every request is eventually granted.
func E1(a ioa.Automaton, users Users) *proof.CondModule {
	m := &proof.CondModule{Name: "E1", Auto: a}
	for u := range users {
		m.Hypotheses = append(m.Hypotheses, RtnRes1(users, u))
		m.Goals = append(m.Goals, GrRes1(users, u))
	}
	return m
}

// MutualExclusion is the safety invariant of §3.1: at most one user
// uses the resource at a time. For A₁ it is structural (holder is a
// scalar); the predicate is exported for use on mapped states of the
// lower levels.
func MutualExclusion(s ioa.State) bool {
	_, ok := s.(*State)
	return ok
}
