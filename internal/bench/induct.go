package bench

// Inductive-certification sweep (E21): safety certified by one-step
// induction over streamed candidate domains, compared against the
// cost (and the reach) of the reachability engines on the same
// systems. The point of the comparison: reachability proves the
// invariant over the states it can materialize — at most 24,976 in
// any recorded run — while induction certifies over complete
// combinatorial domains (16.7M counter vectors, 9.1M Lamport states)
// in O(1) resident memory, because a failed step needs no history and
// a successful one needs no frontier. Rows are written to
// BENCH_induct.json by arbiterbench -sweep induct.

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/arbiter/spec"
	"repro/internal/arbiter/users"
	"repro/internal/domain"
	"repro/internal/explore"
	"repro/internal/induct"
	"repro/internal/ioa"
	"repro/internal/lattice"
	"repro/internal/mutex"
	"repro/internal/ring"
)

// An InductSystem is one certification workload: an automaton, a
// candidate domain, the full inductive conjunction, and the
// strengthening decomposition (Base plus Library) that rediscovers it
// CTI by CTI.
type InductSystem struct {
	// Name identifies the workload in rows and tests; Users is the
	// user or process count it was built at.
	Name  string
	Users int
	// Auto is the certified automaton.
	Auto ioa.Automaton
	// Dom is the candidate domain Check streams.
	Dom domain.Domain
	// Inv is the full inductive conjunction.
	Inv *lattice.Conjunction
	// Base is the certified property alone (typing plus the safety
	// target); Library holds the auxiliary lemmas Strengthen may
	// conjoin to close Base's CTIs. Inv equals Base extended by some
	// subset of Library.
	Base    *lattice.Conjunction
	Library []lattice.Lemma
	// Invariant is the safety predicate for the reachability
	// cross-check (the differential battery).
	Invariant func(ioa.State) bool
}

// arbiter1TypeOK shapes the closed level-1 arbiter state: the spec
// automaton followed by n heavy-load users.
func arbiter1TypeOK(n int) lattice.Lemma {
	return lattice.L("TypeOK", func(st ioa.State) bool {
		ts, ok := st.(*ioa.TupleState)
		if !ok || ts.Len() != n+1 {
			return false
		}
		a1, ok := ts.At(0).(*spec.State)
		if !ok || a1.NumUsers() != n {
			return false
		}
		if h := a1.Holder(); h < -1 || h >= n {
			return false
		}
		for i := 1; i <= n; i++ {
			u, ok := ts.At(i).(*users.State)
			if !ok || u.Remaining() != -1 {
				return false
			}
		}
		return true
	})
}

// holderAgreement is the lemma that makes arbiter1 mutual exclusion
// inductive: a user holding the resource is the one the arbiter's
// holder variable names. Mutex alone is true but not inductive — a
// domain state with a holding user and holder = -1 satisfies it and
// grants a second user in one step; this lemma refutes exactly those
// states.
func holderAgreement(n int) lattice.Lemma {
	return lattice.L("HolderAgreement", func(st ioa.State) bool {
		ts, ok := st.(*ioa.TupleState)
		if !ok {
			return false
		}
		a1, ok := ts.At(0).(*spec.State)
		if !ok {
			return false
		}
		for i := 1; i <= n; i++ {
			if u, ok := ts.At(i).(*users.State); ok && u.Phase() == users.Holding {
				if a1.Holder() != i-1 {
					return false
				}
			}
		}
		return true
	})
}

// userParts returns the three heavy-load user states, one slice per
// user, for tuple domains.
func userParts(n int) [][]ioa.State {
	phases := []ioa.State{
		users.NewState(users.Idle, -1),
		users.NewState(users.Waiting, -1),
		users.NewState(users.Holding, -1),
	}
	parts := make([][]ioa.State, n)
	for i := range parts {
		parts[i] = phases
	}
	return parts
}

// InductArbiter1 builds the closed level-1 arbiter workload: the
// domain is every (spec state) × (user phase)^n combination —
// 2^n·(n+1)·3^n states, 326,592 at n=6 — and the conjunction is
// TypeOK ∧ Mutex ∧ HolderAgreement.
func InductArbiter1(n int) (InductSystem, error) {
	a, err := closedSpec(n)
	if err != nil {
		return InductSystem{}, err
	}
	var specs []ioa.State
	for mask := 0; mask < 1<<uint(n); mask++ {
		reqs := make([]bool, n)
		for i := 0; i < n; i++ {
			reqs[i] = mask&(1<<uint(i)) != 0
		}
		for h := -1; h < n; h++ {
			specs = append(specs, spec.NewState(reqs, h))
		}
	}
	parts := append([][]ioa.State{specs}, userParts(n)...)
	mutexLemma := lattice.L("Mutex", MutexInvariant)
	ha := holderAgreement(n)
	base := lattice.Conj("Inv", arbiter1TypeOK(n), mutexLemma)
	return InductSystem{
		Name:      fmt.Sprintf("arbiter1(n=%d)", n),
		Users:     n,
		Auto:      a,
		Dom:       domain.Tuple("arbiter1-typeok", parts),
		Inv:       base.With(ha),
		Base:      base,
		Library:   []lattice.Lemma{ha},
		Invariant: MutexInvariant,
	}, nil
}

// InductDijkstra builds the token-ring closure workload: over the
// full K^n corruption domain, "at least one machine privileged" holds
// everywhere (a pigeonhole fact the engine re-proves as an inductive
// step over all K^n states) and "at most one" carves out exactly the
// legitimate states, whose closure under moves is the inductive step.
// The same closure verdict the stabilize certifier reaches by
// exploration is certified here without building any graph.
func InductDijkstra(n, k int) (InductSystem, error) {
	r, err := ring.NewDijkstra(n, k)
	if err != nil {
		return InductSystem{}, err
	}
	ge1 := lattice.L("AtLeastOnePrivileged", func(st ioa.State) bool {
		return r.PrivilegedCount(st) >= 1
	})
	le1 := lattice.L("AtMostOnePrivileged", func(st ioa.State) bool {
		return r.PrivilegedCount(st) <= 1
	})
	return InductSystem{
		Name:      fmt.Sprintf("dijkstra(n=%d,K=%d)", n, k),
		Users:     n,
		Auto:      r.Auto,
		Dom:       r.StateDomain(),
		Inv:       lattice.Conj("Legit", ge1, le1),
		Base:      lattice.Conj("Legit", ge1, le1),
		Invariant: r.Legit,
	}, nil
}

// InductRing builds the LeLann ring workload: the closed token ring
// with heavy-load users over the full 8^n·3^n product of process and
// user phases (13,824 at n=3). User-level mutual exclusion rests on a
// four-lemma chain: the token is unique, a serving process holds it,
// process and user agree on who is being served, and a requesting
// process faces a waiting user (the lemma that keeps a grant from
// landing on an idle user).
func InductRing(n int) (InductSystem, error) {
	a, err := closedRing(n)
	if err != nil {
		return InductSystem{}, err
	}
	var procs []ioa.State
	for bits := 0; bits < 8; bits++ {
		procs = append(procs, ring.NewProcState(bits&1 != 0, bits&2 != 0, bits&4 != 0))
	}
	var inner []ioa.State
	cur := make([]ioa.State, n)
	var walk func(int)
	walk = func(i int) {
		if i == n {
			inner = append(inner, ioa.NewTupleState(cur))
			return
		}
		for _, p := range procs {
			cur[i] = p
			walk(i + 1)
		}
	}
	walk(0)
	parts := append([][]ioa.State{inner}, userParts(n)...)

	proc := func(st ioa.State, i int) *ring.ProcState {
		return st.(*ioa.TupleState).At(0).(*ioa.TupleState).At(i).(*ring.ProcState)
	}
	user := func(st ioa.State, i int) *users.State {
		return st.(*ioa.TupleState).At(i + 1).(*users.State)
	}
	typeOK := lattice.L("TypeOK", func(st ioa.State) bool {
		ts, ok := st.(*ioa.TupleState)
		if !ok || ts.Len() != n+1 {
			return false
		}
		in, ok := ts.At(0).(*ioa.TupleState)
		if !ok || in.Len() != n {
			return false
		}
		for i := 0; i < n; i++ {
			if _, ok := in.At(i).(*ring.ProcState); !ok {
				return false
			}
			u, ok := ts.At(i + 1).(*users.State)
			if !ok || u.Remaining() != -1 {
				return false
			}
		}
		return true
	})
	userMutex := lattice.L("UserMutex", MutexInvariant)
	tokenUnique := lattice.L("TokenUnique", func(st ioa.State) bool {
		tokens := 0
		for i := 0; i < n; i++ {
			if proc(st, i).HasToken() {
				tokens++
			}
		}
		return tokens == 1
	})
	holderHasToken := lattice.L("HolderHasToken", func(st ioa.State) bool {
		for i := 0; i < n; i++ {
			if p := proc(st, i); p.UserHolding() && !p.HasToken() {
				return false
			}
		}
		return true
	})
	requestAgree := lattice.L("RequestAgree", func(st ioa.State) bool {
		for i := 0; i < n; i++ {
			if proc(st, i).Requesting() && user(st, i).Phase() != users.Waiting {
				return false
			}
		}
		return true
	})
	holdAgree := lattice.L("HoldAgree", func(st ioa.State) bool {
		for i := 0; i < n; i++ {
			if proc(st, i).UserHolding() != (user(st, i).Phase() == users.Holding) {
				return false
			}
		}
		return true
	})
	library := []lattice.Lemma{tokenUnique, holderHasToken, requestAgree, holdAgree}
	base := lattice.Conj("Inv", typeOK, userMutex)
	inv := base
	for _, l := range library {
		inv = inv.With(l)
	}
	return InductSystem{
		Name:      fmt.Sprintf("lelann(n=%d)", n),
		Users:     n,
		Auto:      a,
		Dom:       domain.Tuple("ring-typeok", parts),
		Inv:       inv,
		Base:      base,
		Library:   library,
		Invariant: MutexInvariant,
	}, nil
}

// InductLamport builds the bounded Lamport mutex workload — the
// headline: the complete TypeOK domain at (2,2,1) has 518,400 states,
// at (2,2,2) 9.1M, against a reachable set of a few dozen.
func InductLamport(n, maxClock, cap int) (InductSystem, error) {
	l, err := mutex.NewLamport(n, maxClock, cap)
	if err != nil {
		return InductSystem{}, err
	}
	return InductSystem{
		Name:      fmt.Sprintf("lamport(n=%d,M=%d,C=%d)", n, maxClock, cap),
		Users:     n,
		Auto:      l.Auto,
		Dom:       l.Domain(),
		Inv:       l.Inv(),
		Base:      lattice.Conj("Inv", l.TypeOK(), l.MutexLemma()),
		Library:   l.Lemmas(),
		Invariant: func(s ioa.State) bool { return l.InCrit(s) <= 1 },
	}, nil
}

// InductBurns builds Burns' mutex over a reachable domain — relative
// induction: the domain is the reach set itself (closed under steps
// by construction, Contains backed by the interned store), so Check
// certifies any true invariant and the comparison degenerates to
// reachability cost. Included as the bridge case between the two
// methods and as the battery's exercise of the lifted
// domain.Reachable generator.
func InductBurns(opts explore.Options) (InductSystem, error) {
	composed, err := closedBurns()
	if err != nil {
		return InductSystem{}, err
	}
	a := explore.ClosedWorld(composed)
	clientMutex := lattice.L("ClientMutex", func(s ioa.State) bool {
		ts, ok := s.(*ioa.TupleState)
		if !ok {
			return true
		}
		crit := 0
		for i := 1; i < ts.Len(); i++ {
			if ts.At(i).Key() == "crit" {
				crit++
			}
		}
		return crit <= 1
	})
	return InductSystem{
		Name:      "burns(reachable)",
		Users:     2,
		Auto:      a,
		Dom:       domain.Reachable("reachable", a, nil, opts),
		Inv:       lattice.Conj("Inv", clientMutex),
		Base:      lattice.Conj("Inv", clientMutex),
		Invariant: clientMutex.Pred,
	}, nil
}

// An InductRow is one certification cell: induction cost and verdict
// against reachability cost and reach on the same system.
type InductRow struct {
	System string `json:"system"`
	// Domain names the candidate domain; DomainStates its size as
	// walked, Candidates the subset carrying obligations, Transitions
	// the pushed steps.
	Domain       string `json:"domain"`
	DomainStates int64  `json:"domain_states"`
	Candidates   int64  `json:"candidates"`
	Transitions  int64  `json:"transitions"`
	// Inductive and AdequacyChecked are the certificate verdicts;
	// Conjuncts counts the lemmas of the certified conjunction.
	Inductive       bool `json:"inductive"`
	AdequacyChecked bool `json:"adequacy_checked"`
	Conjuncts       int  `json:"conjuncts"`
	// CertNS is the best-of-reps induction wall time.
	CertNS int64 `json:"cert_ns"`
	// ReachStates and ReachNS are the reachability comparison:
	// explored state count and best-of-reps wall time.
	ReachStates int   `json:"reach_states"`
	ReachNS     int64 `json:"reach_ns"`
}

// inductCell certifies one workload, best-of-reps timed, then runs
// the reachability comparison.
func inductCell(cfg SweepConfig, build func() (InductSystem, error)) (InductRow, error) {
	var sys InductSystem
	var cert induct.Certificate
	certNS, err := cfg.bestOf(func() (func() error, error) {
		var err error
		sys, err = build()
		if err != nil {
			return nil, err
		}
		return func() (err error) {
			cert, err = induct.Check(context.Background(), sys.Auto, sys.Dom, sys.Inv, induct.Options{})
			return err
		}, nil
	})
	if err != nil {
		return InductRow{}, err
	}
	row := InductRow{
		System:          sys.Name,
		Domain:          sys.Dom.Name(),
		DomainStates:    cert.DomainStates,
		Candidates:      cert.Candidates,
		Transitions:     cert.Transitions,
		Inductive:       cert.Inductive,
		AdequacyChecked: cert.AdequacyChecked,
		Conjuncts:       sys.Inv.Len(),
		CertNS:          certNS,
	}

	eng := explore.New(cfg.explore())
	row.ReachNS, err = cfg.bestOf(func() (func() error, error) {
		return func() error {
			v, err := eng.CheckInvariant(context.Background(), sys.Auto, sys.Invariant)
			if err == nil && v != nil {
				err = fmt.Errorf("bench: induct %s: reachability found an invariant violation at %s",
					sys.Name, v.State.Key())
			}
			return err
		}, nil
	})
	if err != nil {
		return row, err
	}
	states, err := eng.Reach(context.Background(), sys.Auto)
	if err != nil {
		return row, err
	}
	row.ReachStates = len(states)
	return row, nil
}

// inductRows runs the certification battery; quick drops the
// multi-million-state rows.
func inductRows(cfg SweepConfig) ([]InductRow, error) {
	cells := []func() (InductSystem, error){
		func() (InductSystem, error) { return InductArbiter1(4) },
		func() (InductSystem, error) { return InductArbiter1(6) },
		func() (InductSystem, error) { return InductDijkstra(4, 4) },
		func() (InductSystem, error) { return InductDijkstra(6, 6) },
		func() (InductSystem, error) { return InductRing(3) },
		func() (InductSystem, error) { return InductLamport(2, 2, 1) },
		func() (InductSystem, error) { return InductBurns(cfg.explore()) },
	}
	if !cfg.Quick {
		cells = append(cells,
			func() (InductSystem, error) { return InductDijkstra(8, 8) },
			func() (InductSystem, error) { return InductLamport(2, 2, 2) },
		)
	}
	var rows []InductRow
	for _, build := range cells {
		row, err := inductCell(cfg, build)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// inductSweep is the E21 sweep.
var inductSweep = sweepOf[InductRow]{
	name:  "induct",
	title: "Inductive certification — streamed domain vs reachability (best-of-reps)",
	reps:  3,
	rows:  inductRows,
	cols: []column[InductRow]{
		{"system", -18, func(r InductRow) string { return r.System }},
		{"domain", 10, func(r InductRow) string { return strconv.FormatInt(r.DomainStates, 10) }},
		{"cands", 10, func(r InductRow) string { return strconv.FormatInt(r.Candidates, 10) }},
		{"steps", 7, func(r InductRow) string { return strconv.FormatInt(r.Transitions, 10) }},
		{"ind", -5, func(r InductRow) string {
			if r.Inductive && !r.AdequacyChecked {
				return "ok*"
			}
			return okFail(r.Inductive)
		}},
		{"conj", 4, func(r InductRow) string { return strconv.Itoa(r.Conjuncts) }},
		{"cert-ms", 10, func(r InductRow) string { return ms(r.CertNS) }},
		{"reach", 8, func(r InductRow) string { return strconv.Itoa(r.ReachStates) }},
		{"reach-ms", 10, func(r InductRow) string { return ms(r.ReachNS) }},
	},
	check: func(r InductRow) (key, fault string) {
		key = fmt.Sprintf("%s/%s", r.System, r.Domain)
		if !(r.Inductive && r.Conjuncts > 0 && r.DomainStates >= r.Candidates && r.Candidates > 0) {
			fault = fmt.Sprintf("inductive=%t conjuncts=%d domain=%d candidates=%d",
				r.Inductive, r.Conjuncts, r.DomainStates, r.Candidates)
		}
		return key, fault
	},
}
