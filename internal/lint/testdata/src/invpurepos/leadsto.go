package invpurepos

import (
	"time"

	"repro/internal/ioa"
	"repro/internal/proof"
)

// leadsTo's S counts its evaluations and its T reads the clock: the
// exact leads-to check, which evaluates S on every reachable state and
// T on every edge, would answer by walk order.
func leadsTo() *proof.LeadsTo {
	return &proof.LeadsTo{Name: "impure",
		S: func(s ioa.State) bool {
			evals++ // want "writes captured variable"
			return s.Key() != ""
		},
		T: func(a ioa.Action) bool {
			return a == "go" && time.Now().Unix() > 0 // want "reads the wall clock"
		}}
}
