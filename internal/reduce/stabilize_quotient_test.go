package reduce_test

// Property test pinning stabilize.Certify against the symmetry
// quotient: certifying Dijkstra's ring over DijkstraShift orbits must
// not change any verdict or the demonic convergence bound. The shift
// group acts freely (adding a nonzero constant mod K moves every
// counter vector), so the quotient closure and envelope are exactly
// K times smaller — pinned exactly, not just bounded.

import (
	"context"
	"testing"

	"repro/internal/domain"
	"repro/internal/explore"
	"repro/internal/reduce"
	"repro/internal/ring"
	"repro/internal/stabilize"
)

func TestCertifyQuotientPreservesBound(t *testing.T) {
	for n := 3; n <= 5; n++ {
		n := n
		t.Run(ringName(n), func(t *testing.T) {
			r, err := ring.NewDijkstra(n, n)
			if err != nil {
				t.Fatal(err)
			}
			all, err := domain.Collect(context.Background(), r.StateDomain())
			if err != nil {
				t.Fatal(err)
			}
			env := domain.Explicit("all-corruptions", all)
			full, err := stabilize.Certify(context.Background(), r.Auto, r.Legit, env,
				explore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			canon, err := reduce.NewDijkstraShift(n)
			if err != nil {
				t.Fatal(err)
			}
			quot, err := stabilize.Certify(context.Background(), r.Auto, r.Legit, env,
				explore.Options{Canon: canon})
			if err != nil {
				t.Fatal(err)
			}

			if full.Stabilizing() != quot.Stabilizing() ||
				full.Closed != quot.Closed ||
				full.Converges != quot.Converges ||
				full.Bounded != quot.Bounded {
				t.Fatalf("verdicts diverge:\nfull %s\nquot %s", full, quot)
			}
			if full.K != quot.K {
				t.Fatalf("convergence bound changed under quotient: full k=%d, quotient k=%d",
					full.K, quot.K)
			}
			if full.MeanRounds != quot.MeanRounds {
				t.Fatalf("mean rounds changed under quotient: full %v, quotient %v",
					full.MeanRounds, quot.MeanRounds)
			}
			// Free action: every orbit has exactly K = n members.
			if quot.States*n != full.States {
				t.Fatalf("quotient closure %d states, full %d: want exact %d-fold reduction",
					quot.States, full.States, n)
			}
			if quot.EnvelopeStates*n != full.EnvelopeStates {
				t.Fatalf("quotient envelope %d states, full %d: want exact %d-fold reduction",
					quot.EnvelopeStates, full.EnvelopeStates, n)
			}
			t.Logf("n=%d: k=%d, closure %d orbits (%d states), mean %.2f rounds",
				n, quot.K, quot.States, full.States, quot.MeanRounds)
		})
	}
}

func ringName(n int) string {
	return "dijkstra-n" + string(rune('0'+n))
}
