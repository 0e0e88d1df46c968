// Package ring implements a LeLann-style token-ring resource arbiter
// as a second client of the input-output automaton library: n arbiter
// processes arranged in a ring circulate a token; the process holding
// the token serves its local user (if requesting) before passing the
// token on. The arbiter satisfies the same specification A₁/E₁ of §3.1
// as Schönhage's arbiter, via a direct possibilities mapping — a
// demonstration that the hierarchical-proof machinery is not tied to
// the paper's worked example.
package ring

import (
	"fmt"

	"repro/internal/arbiter/spec"
	"repro/internal/ioa"
	"repro/internal/proof"
)

// ProcState is the state of one ring process.
type ProcState struct {
	hasToken    bool
	requesting  bool // local user has an unserved request
	userHolding bool // local user currently holds the resource
	key         string
}

var _ ioa.State = (*ProcState)(nil)

// NewProcState builds a process state.
func NewProcState(hasToken, requesting, userHolding bool) *ProcState {
	return &ProcState{
		hasToken:    hasToken,
		requesting:  requesting,
		userHolding: userHolding,
		key:         fmt.Sprintf("t=%t r=%t h=%t", hasToken, requesting, userHolding),
	}
}

// Key implements ioa.State.
func (s *ProcState) Key() string { return s.key }

// HasToken reports whether the process holds the token.
func (s *ProcState) HasToken() bool { return s.hasToken }

// Requesting reports whether the local user has an unserved request.
func (s *ProcState) Requesting() bool { return s.requesting }

// UserHolding reports whether the local user holds the resource.
func (s *ProcState) UserHolding() bool { return s.userHolding }

// PassToken names the internal handoff from process i to its ring
// successor.
func PassToken(from, to int) ioa.Action {
	return ioa.Act("token", itoa(from), itoa(to))
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

// NewProcess builds ring process i of n, serving the named user. The
// token starts at process 0.
//
//	input  request(u):    requesting ← true
//	input  return(u):     if userHolding: userHolding ← false
//	input  token(pred,i): hasToken ← true
//	output grant(u):      pre hasToken ∧ requesting ∧ ¬userHolding
//	                      eff requesting ← false; userHolding ← true
//	output token(i,succ): pre hasToken ∧ ¬requesting ∧ ¬userHolding
//	                      eff hasToken ← false
//
// The token stays put while the local user is being served, and leaves
// only once the user is idle again — so at most one user holds the
// resource. Waiting is not bounded: a user that requests again before
// the pass is served again, fairness does not force the pass, and so
// some fair execution locks out each user (TestRingLockoutExact).
func NewProcess(i, n int, user string) *ioa.Prog {
	pred, succ := (i+n-1)%n, (i+1)%n
	class := "p" + itoa(i)
	d := ioa.NewDef("Ring_" + itoa(i))
	d.Start(NewProcState(i == 0, false, false))
	d.Input(spec.Request(user), func(st ioa.State) ioa.State {
		s := st.(*ProcState)
		return NewProcState(s.hasToken, true, s.userHolding)
	})
	d.Input(spec.Return(user), func(st ioa.State) ioa.State {
		s := st.(*ProcState)
		if !s.userHolding {
			return s // bogus return: ignored, as in A₁
		}
		return NewProcState(s.hasToken, s.requesting, false)
	})
	if n > 1 {
		d.Input(PassToken(pred, i), func(st ioa.State) ioa.State {
			s := st.(*ProcState)
			return NewProcState(true, s.requesting, s.userHolding)
		})
	}
	d.Output(spec.Grant(user), class,
		func(st ioa.State) bool {
			s := st.(*ProcState)
			return s.hasToken && s.requesting && !s.userHolding
		},
		func(st ioa.State) ioa.State {
			s := st.(*ProcState)
			return NewProcState(s.hasToken, false, true)
		})
	if n > 1 {
		d.Output(PassToken(i, succ), class,
			func(st ioa.State) bool {
				s := st.(*ProcState)
				return s.hasToken && !s.requesting && !s.userHolding
			},
			func(st ioa.State) ioa.State {
				s := st.(*ProcState)
				return NewProcState(false, s.requesting, s.userHolding)
			})
	}
	return d.MustBuild()
}

// System bundles the ring arbiter.
type System struct {
	// Users names the users, user i at process i.
	Users spec.Users
	// Procs are the ring processes in ring order.
	Procs []*ioa.Prog
	// Arbiter is the hidden composition: externally it speaks exactly
	// A₁'s signature (request/return inputs, grant outputs).
	Arbiter ioa.Automaton
	// Composite is the raw composition.
	Composite *ioa.Composite
}

// New assembles a ring arbiter for the given users.
func New(users spec.Users) (*System, error) {
	if len(users) == 0 {
		return nil, fmt.Errorf("ring: need at least one user")
	}
	sys := &System{Users: users}
	comps := make([]ioa.Automaton, 0, len(users))
	for i, u := range users {
		p := NewProcess(i, len(users), u)
		sys.Procs = append(sys.Procs, p)
		comps = append(comps, p)
	}
	composite, err := ioa.Compose("ring", comps...)
	if err != nil {
		return nil, err
	}
	sys.Composite = composite
	keep := make(ioa.Set)
	for _, u := range users {
		keep.Add(spec.Grant(u))
	}
	sys.Arbiter = ioa.HideOutputsExcept(composite, keep)
	return sys, nil
}

// TokenCount returns the number of processes holding the token in a
// composite state — the single-token safety invariant asserts 1.
func (s *System) TokenCount(st ioa.State) int {
	ts, ok := st.(*ioa.TupleState)
	if !ok {
		return -1
	}
	n := 0
	for i := range s.Procs {
		if ts.At(i).(*ProcState).hasToken {
			n++
		}
	}
	return n
}

// HolderCount returns the number of users holding the resource.
func (s *System) HolderCount(st ioa.State) int {
	ts, ok := st.(*ioa.TupleState)
	if !ok {
		return -1
	}
	n := 0
	for i := range s.Procs {
		if ts.At(i).(*ProcState).userHolding {
			n++
		}
	}
	return n
}

// H builds the possibilities mapping from the ring arbiter to A₁:
//
//	u ∈ requesters iff requesting at u's process
//	holder = u     iff userHolding at u's process
//	holder = a     otherwise
func (s *System) H(a1 ioa.Automaton) *proof.PossMapping {
	return &proof.PossMapping{
		A: s.Arbiter,
		B: a1,
		Map: func(st ioa.State) []ioa.State {
			ts, ok := st.(*ioa.TupleState)
			if !ok {
				return nil
			}
			req := make([]bool, len(s.Procs))
			holder := -1
			for i := range s.Procs {
				ps := ts.At(i).(*ProcState)
				req[i] = ps.requesting
				if ps.userHolding {
					holder = i
				}
			}
			return []ioa.State{spec.NewState(req, holder)}
		},
	}
}

// GrRing is the no-lockout goal at the ring level: a requesting user
// at process i is eventually granted.
func (s *System) GrRing(i int) *proof.LeadsTo {
	return &proof.LeadsTo{
		Name: "GrRing(" + s.Users[i] + ")",
		S: func(st ioa.State) bool {
			ts, ok := st.(*ioa.TupleState)
			return ok && ts.At(i).(*ProcState).requesting
		},
		T: func(a ioa.Action) bool { return a == spec.Grant(s.Users[i]) },
	}
}
