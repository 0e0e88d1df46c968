package bench

import (
	"context"
	"os"
	"testing"

	"repro/internal/explore"
	"repro/internal/induct"
	"repro/internal/reduce"
)

// TestInductDifferential is the battery's soundness spine: whenever
// Check certifies a conjunction inductive over an adequate domain,
// the reachability engine must agree the safety predicate holds over
// the reach set. A disagreement in either direction is an engine bug
// (induction is strictly stronger: it quantifies over the whole
// domain, reachability only over reachable states).
func TestInductDifferential(t *testing.T) {
	cells := []struct {
		name  string
		build func() (InductSystem, error)
	}{
		{"arbiter1-n2", func() (InductSystem, error) { return InductArbiter1(2) }},
		{"arbiter1-n3", func() (InductSystem, error) { return InductArbiter1(3) }},
		{"arbiter1-n4", func() (InductSystem, error) { return InductArbiter1(4) }},
		{"dijkstra-3-3", func() (InductSystem, error) { return InductDijkstra(3, 3) }},
		{"lelann-n3", func() (InductSystem, error) { return InductRing(3) }},
		{"burns", func() (InductSystem, error) { return InductBurns(explore.Options{}) }},
		{"lamport-2-2-1", func() (InductSystem, error) { return InductLamport(2, 2, 1) }},
	}
	for _, cell := range cells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			sys, err := cell.build()
			if err != nil {
				t.Fatal(err)
			}
			cert, err := induct.Check(context.Background(), sys.Auto, sys.Dom, sys.Inv, induct.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !cert.Inductive {
				t.Fatalf("not inductive: %s", cert.CTI)
			}
			if !cert.AdequacyChecked {
				t.Fatal("battery domains all carry Contains; adequacy should be checked")
			}
			v, err := explore.New(explore.Options{}).CheckInvariant(context.Background(), sys.Auto, sys.Invariant)
			if err != nil {
				t.Fatal(err)
			}
			if v != nil {
				t.Fatalf("induction certified but reachability violates at %s", v.State.Key())
			}
			t.Logf("%s: %d domain states, %d candidates, %d transitions",
				sys.Name, cert.DomainStates, cert.Candidates, cert.Transitions)
		})
	}
}

// TestInductArbiterMustFail is the canonical non-inductive-but-true
// fixture: mutual exclusion holds on the level-1 arbiter (reachability
// proves it), yet TypeOK ∧ Mutex alone is not inductive — a domain
// state with a holding user and holder = -1 satisfies both and grants
// a second user in one step. The CTI must name that step, replay as a
// legal execution, and be closed by conjoining HolderAgreement.
func TestInductArbiterMustFail(t *testing.T) {
	sys, err := InductArbiter1(3)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := induct.Check(context.Background(), sys.Auto, sys.Dom, sys.Base, induct.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cert.Inductive || cert.CTI == nil {
		t.Fatalf("TypeOK ∧ Mutex should not be inductive bare, got %s", cert)
	}
	if cert.CTI.Kind != induct.KindStep || cert.CTI.Conjunct != "Mutex" {
		t.Fatalf("want a step CTI violating Mutex, got %s", cert.CTI)
	}
	if err := reduce.ReplayTrace(sys.Auto, cert.CTI.Trace); err != nil {
		t.Fatalf("CTI trace does not replay: %v", err)
	}
	// The pre-state must be refuted by the missing lemma — that is
	// what makes strengthening close.
	if sys.Library[0].Pred(cert.CTI.From) {
		t.Fatal("CTI pre-state satisfies HolderAgreement; strengthening could not progress")
	}
	res, err := induct.Strengthen(context.Background(), sys.Auto, sys.Dom, sys.Base, sys.Library, induct.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certificate.Inductive {
		t.Fatalf("strengthening did not close:\n%s", res)
	}
	if len(res.Rounds) != 1 || res.Rounds[0].Lemma != "HolderAgreement" {
		t.Fatalf("want one round conjoining HolderAgreement, got %s", res)
	}
}

// TestInductNegative is the CI negative control: with INDUCT_NEGATIVE=1
// it asserts the non-inductive base IS inductive, so the test must
// fail — proving the checker actually finds CTIs rather than
// rubber-stamping. CI runs it expecting a non-zero exit.
func TestInductNegative(t *testing.T) {
	if os.Getenv("INDUCT_NEGATIVE") == "" {
		t.Skip("negative control; set INDUCT_NEGATIVE=1 to run (the test then must fail)")
	}
	sys, err := InductArbiter1(2)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := induct.Check(context.Background(), sys.Auto, sys.Dom, sys.Base, induct.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Inductive {
		t.Fatalf("negative control: base conjunction is not inductive (CTI %s)", cert.CTI)
	}
}

// TestInductSweepQuick pins the quick battery: seven cells, every one
// inductive, and the largest certified domain past the largest state
// space any reachability run in the repository has materialized.
// TestSweepRegistry covers the table and the JSON.
func TestInductSweepQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep covers multi-hundred-thousand-state domains")
	}
	rows, err := inductRows(SweepConfig{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("quick sweep rows = %d, want 7", len(rows))
	}
	var maxDomain int64
	for _, r := range rows {
		if !r.Inductive {
			t.Fatalf("%s not inductive", r.System)
		}
		if r.ReachStates <= 0 {
			t.Fatalf("%s missing reachability comparison", r.System)
		}
		if r.DomainStates > maxDomain {
			maxDomain = r.DomainStates
		}
	}
	// The acceptance bar: certification reaches past the largest
	// recorded reachability run (24,976 states, EXPERIMENTS.md E18).
	if maxDomain <= 24976 {
		t.Fatalf("largest certified domain %d does not exceed the explored maximum", maxDomain)
	}
}
