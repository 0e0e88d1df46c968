package proof_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/arbiter/spec"
	"repro/internal/arbiter/users"
	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/proof"
	"repro/internal/ring"
)

// renderLasso spells out a lasso: every action and every state key.
func renderLasso(l *explore.Lasso) string {
	if l == nil {
		return "holds"
	}
	var b strings.Builder
	for _, x := range []*ioa.Execution{l.Stem, {States: l.CycleStates, Acts: l.Cycle}} {
		fmt.Fprintf(&b, "%s |", ioa.TraceString(x.Acts))
		for _, s := range x.States {
			fmt.Fprintf(&b, " %s", s.Key())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestLeadsToLassosIndependentOfWorkers: CheckLeadsTo builds its graph
// sequentially, so on TestRingLockoutExact's system — the closed
// five-process ring — the lockout lassos at GOMAXPROCS 1 and 4 are
// identical.
func TestLeadsToLassosIndependentOfWorkers(t *testing.T) {
	us := spec.DefaultUsers(5)
	sys, err := ring.New(us)
	if err != nil {
		t.Fatal(err)
	}
	closed, err := ioa.Compose("closed", append([]ioa.Automaton{sys.Arbiter}, users.Automata(users.HeavyLoad(us))...)...)
	if err != nil {
		t.Fatal(err)
	}
	var goals []*proof.LeadsTo
	for i := range us {
		goals = append(goals, proof.OnComponent(0, sys.GrRing(i)))
	}
	var runs [2][]*explore.Lasso
	for k, procs := range []int{1, 4} {
		setProcs(t, procs)
		if runs[k], err = proof.CheckLeadsTo(context.Background(), closed, explore.Options{}, goals...); err != nil {
			t.Fatal(err)
		}
	}
	for i, g := range goals {
		if one, four := renderLasso(runs[0][i]), renderLasso(runs[1][i]); one != four {
			t.Errorf("%s: GOMAXPROCS=1 gives\n%s GOMAXPROCS=4 gives\n%s", g.Name, one, four)
		}
	}
}
