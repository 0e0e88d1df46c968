package bench

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/arbiter/dist"
	"repro/internal/graph"
	"repro/internal/ioa"
)

// RunDist measures response times of the fully-distributed arbiter A₃
// (per-process automata plus the FIFO message system) under the same
// b-bounded discipline as the A₂-level runs. The paper performs its
// §3.4 analysis at the A₂ level "for convenience" and notes
// (Chapter 4) that relating complexity across abstraction levels is
// future work; this harness does the comparison experimentally: the A₃
// numbers track the A₂-over-𝒢 bounds, with e(𝒢) = e(G) + (number of
// buffered edges) playing the role of e.
func RunDist(t *graph.Tree, holder int, load Load, b float64, grants int, seed int64) (*Result, error) {
	sys, err := dist.New(t, holder)
	if err != nil {
		return nil, err
	}
	comps := make([]ioa.Automaton, 0, len(sys.Order)+2)
	for _, a := range sys.Order {
		comps = append(comps, sys.Procs[a].Relabel(perAction))
	}
	comps = append(comps, sys.Msg.Relabel(perAction))

	userIDs := t.NodesOf(graph.User)
	for i, u := range userIDs {
		rounds := -1
		if load == Light && i != 0 {
			rounds = 0
		}
		uName := t.Node(u).Name
		aName := t.Node(t.UserAttachment(u)).Name
		comps = append(comps, distUser(uName, aName, rounds).Relabel(perAction))
	}
	closed, err := ioa.Compose("timed-dist", comps...)
	if err != nil {
		return nil, err
	}

	res := &Result{First: math.NaN()}
	pending := make(map[string]float64, len(userIDs))
	observe := func(x *ioa.Execution, now float64) {
		act := x.Acts[len(x.Acts)-1]
		params := act.Params()
		if len(params) != 2 {
			return
		}
		switch act.Base() {
		case "receiverequest":
			// A user's request arriving at its arbiter: from-param is
			// a user name.
			if params[0][0] == 'u' {
				if _, dup := pending[params[0]]; !dup {
					pending[params[0]] = now
				}
			}
		case "sendgrant":
			if params[1][0] == 'u' {
				if t0, ok := pending[params[1]]; ok {
					res.served(now - t0)
					delete(pending, params[1])
				}
			}
		case "sendrequest", "receivegrant":
			if params[0][0] != 'u' && params[1][0] != 'u' {
				res.EdgeMsgs++
			}
		}
	}
	if _, err := res.timed(closed, b, seed, 400*grants*(t.EdgeCount()+2), grants, observe); err != nil {
		return nil, err
	}
	return res, nil
}

// distUserState is the state of a level-3 user automaton.
type distUserState struct {
	phase string // idle, waiting, holding
	rem   int    // rounds remaining; -1 = forever
}

// Key implements ioa.State.
func (s distUserState) Key() string { return fmt.Sprintf("%s/%d", s.phase, s.rem) }

// distUser is a level-3 user automaton speaking the raw
// receiverequest/sendgrant/receivegrant interface.
func distUser(user, arb string, rounds int) *ioa.Prog {
	d := ioa.NewDef("U_" + user)
	d.Start(distUserState{phase: "idle", rem: rounds})
	d.Output(dist.ReceiveRequest(user, arb), user,
		func(s ioa.State) bool {
			st := s.(distUserState)
			return st.phase == "idle" && st.rem != 0
		},
		func(s ioa.State) ioa.State {
			return distUserState{phase: "waiting", rem: s.(distUserState).rem}
		})
	d.Input(dist.SendGrant(arb, user), func(s ioa.State) ioa.State {
		st := s.(distUserState)
		if st.phase == "waiting" {
			st.phase = "holding"
		}
		return st
	})
	d.Output(dist.ReceiveGrant(user, arb), user,
		func(s ioa.State) bool { return s.(distUserState).phase == "holding" },
		func(s ioa.State) ioa.State {
			st := s.(distUserState)
			st.phase = "idle"
			if st.rem > 0 {
				st.rem--
			}
			return st
		})
	return d.MustBuild()
}

// DistVsGraphRow compares the two levels on one tree.
type DistVsGraphRow struct {
	N        int     `json:"n"`
	EG       int     `json:"edges_g"`   // edges of G
	EAug     int     `json:"edges_aug"` // edges of 𝒢
	A2Max    float64 `json:"a2_max"`    // A2-over-G heavy-load max response
	A3Max    float64 `json:"a3_max"`    // A3 heavy-load max response
	BoundAug float64 `json:"bound"`     // 3b·e(𝒢) − b
	Within   bool    `json:"within"`
}

// DistVsGraph sweeps heavy-load response at both levels of
// abstraction.
func DistVsGraph(sizes []int, b float64, seed int64) ([]DistVsGraphRow, error) {
	var rows []DistVsGraphRow
	for _, n := range sizes {
		tr, err := graph.BinaryTree(n)
		if err != nil {
			return nil, err
		}
		aug, err := graph.Augment(tr)
		if err != nil {
			return nil, err
		}
		holder := tr.NodesOf(graph.Arbiter)[0]
		a2res, err := heavyRun(tr, b, 5*n, false, seed)
		if err != nil {
			return nil, err
		}
		a3res, err := RunDist(tr, holder, Heavy, b, 5*n, seed)
		if err != nil {
			return nil, err
		}
		bound := 3*b*float64(aug.EdgeCount()) - b
		rows = append(rows, DistVsGraphRow{
			N: n, EG: tr.EdgeCount(), EAug: aug.EdgeCount(),
			A2Max: a2res.Stats.Max, A3Max: a3res.Stats.Max,
			BoundAug: bound, Within: a3res.Stats.Max <= bound+1e-9,
		})
	}
	return rows, nil
}

// levelsSweep is E13, the cross-level check: the first four sizes only,
// the A₃ state space being the costly one.
var levelsSweep = sweepOf[DistVsGraphRow]{
	name:  "levels",
	title: "Cross-level check — heavy-load max response at A2 (over G) vs A3 (bound 3b·e(𝒢)−b)",
	rows: func(cfg SweepConfig) ([]DistVsGraphRow, error) {
		sizes := cfg.sizes()
		return DistVsGraph(sizes[:min(len(sizes), 4)], cfg.B, cfg.Seed)
	},
	cols: []column[DistVsGraphRow]{
		{"n", 4, func(r DistVsGraphRow) string { return strconv.Itoa(r.N) }},
		{"e(G)", 6, func(r DistVsGraphRow) string { return strconv.Itoa(r.EG) }},
		{"e(𝒢)", 6, func(r DistVsGraphRow) string { return strconv.Itoa(r.EAug) }},
		{"A2 max", 10, func(r DistVsGraphRow) string { return tenths(r.A2Max) }},
		{"A3 max", 10, func(r DistVsGraphRow) string { return tenths(r.A3Max) }},
		{"bound", 10, func(r DistVsGraphRow) string { return tenths(r.BoundAug) }},
		{"ok", 0, func(r DistVsGraphRow) string { return strconv.FormatBool(r.Within) }},
	},
	check: func(r DistVsGraphRow) (key, fault string) {
		return fmt.Sprintf("n%d", r.N), boundFault(r.A3Max, r.BoundAug, r.Within)
	},
}
