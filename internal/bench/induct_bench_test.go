package bench

import (
	"context"
	"testing"

	"repro/internal/induct"
	"repro/internal/lattice"
)

// BenchmarkInductLamport is the inductive certificate of lamport(2,2,1)
// with the lemmas' read sets in force (declared: the pruned domain walk)
// and with every Reads removed (stripped: the walk that builds all
// 518 400 states). Both arms report the same domain_states and
// candidates — the certificate does not depend on how the domain was
// walked — so ns/op and B/op between them is what the declarations buy.
func BenchmarkInductLamport(b *testing.B) {
	sys, err := InductLamport(2, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	stripped := sys.Inv.Lemmas()
	for i := range stripped {
		stripped[i].Reads = nil
	}
	for _, arm := range []struct {
		name string
		inv  *lattice.Conjunction
	}{
		{"declared", sys.Inv},
		{"stripped", lattice.Conj(sys.Inv.Name(), stripped...)},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var cert induct.Certificate
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cert, err = induct.Check(context.Background(), sys.Auto, sys.Dom, arm.inv, induct.Options{})
				if err != nil || !cert.Inductive {
					b.Fatalf("%s: %v", cert, err)
				}
			}
			b.ReportMetric(float64(cert.DomainStates), "domain_states")
			b.ReportMetric(float64(cert.Candidates), "candidates")
		})
	}
}
