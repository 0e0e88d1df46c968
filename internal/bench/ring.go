package bench

import (
	"math"

	"repro/internal/arbiter/spec"
	"repro/internal/ioa"
	"repro/internal/ring"
)

// RunRing measures the token-ring arbiter (internal/ring) under the
// same b-bounded lazy-adversary discipline as the Schönhage runs: one
// fairness class per action, every class firing within b of becoming
// continuously enabled. The token ring is the classic Θ(n)-both-loads
// point of comparison: the token must travel the ring regardless of
// demand.
func RunRing(n int, load Load, b float64, grants int, seed int64) (*Result, error) {
	us := spec.DefaultUsers(n)
	comps := make([]ioa.Automaton, 0, 2*n)
	for i, u := range us {
		comps = append(comps, ring.NewProcess(i, n, u).Relabel(perAction))
	}
	// Under light load the requester sits half a ring away from the
	// initial token (process 0) — the average-adversarial placement; a
	// full lap bounds it either way.
	closed, err := underLoad("timed-ring", comps, us, load, n/2)
	if err != nil {
		return nil, err
	}
	res := &Result{First: math.NaN()}
	if _, err := res.timed(closed, b, seed, 300*grants*(n+2), grants, res.specObserver()); err != nil {
		return nil, err
	}
	return res, nil
}
