package invpureneg

import (
	"repro/internal/ioa"
	"repro/internal/proof"
)

// leadsTo's predicates only read their arguments.
func leadsTo() *proof.LeadsTo {
	return &proof.LeadsTo{Name: "pure",
		S: func(s ioa.State) bool { return s.(*box).n > 0 },
		T: func(a ioa.Action) bool { return a == "go" }}
}
