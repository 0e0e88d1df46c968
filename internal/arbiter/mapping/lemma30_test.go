package mapping

import (
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/proof"
)

// TestLemma30CertifiesH2 applies the strongest instrument in the
// toolbox to the h₂ link: Lemma 30's hypothesis — part(A₂) contained
// in part(A₃′), plus the enabling condition — holds, which certifies
// fair-behavior inclusion fbeh(A₃′) ⊆ fbeh(A₂) outright. This works
// because the partitions align exactly: each A₂ node class equals the
// corresponding process class of A₃′, and each buffer-direction class
// equals a FIFO channel class of M.
func TestLemma30CertifiesH2(t *testing.T) {
	c := buildChain(t, figure32(t), 0)
	if err := proof.FairSatisfiesViaMappingOpts(c.H2, explore.Options{Limit: 500000}); err != nil {
		t.Fatalf("Lemma 30 hypothesis fails for h2: %v", err)
	}
}

// TestLemma30PartitionFailsForH1 documents the paper's own caveat
// (§2.3.1): Lemma 30 requires part(B) contained in part(A), and for
// the h₁ link it is not — A₁ is primitive (one class holding every
// grant(u)), while A₂′ spreads those grants across per-node classes,
// so no single A₂′ class contains A₁'s class. The correspondence
// between states established by h₁ remains useful (Lemma 33 carries
// the E₂ ⇒ E₁ argument instead); the hypothesis check must simply
// report the containment failure.
func TestLemma30PartitionFailsForH1(t *testing.T) {
	c := buildChain(t, figure32(t), 0)
	err := proof.FairSatisfiesViaMappingOpts(c.H1, explore.Options{Limit: 500000})
	if err == nil {
		t.Fatal("expected the partition-containment hypothesis to fail for h1")
	}
	if !strings.Contains(err.Error(), "not contained") {
		t.Fatalf("unexpected failure mode: %v", err)
	}
}
