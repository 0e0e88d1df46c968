package mapping

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/arbiter/dist"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/proof"
)

// TestUnorderedChannelBreaksH2 documents a subtlety this reproduction
// uncovered in the paper's Lemma 46: with the literal Figure 3.6
// message system (unordered delivery), h₂ is NOT a possibilities
// mapping. A process that has just granted the resource toward a
// neighbor may immediately send a request after it on the same
// channel; if M delivers the request first, the h₂-image must take the
// A₂ step request(b,a′) while the buffer node itself is the root — and
// that step's precondition ("(b,a′) points toward the root") fails.
// The proof of Lemma 46 silently excludes a grant in transit on the
// same channel, which is exactly per-channel FIFO order — and the
// paper's own implementability argument for E_M (Lemma 44) builds M
// from FIFO buffers. The unordered M is the FIFO one under the Reorder
// adversary, which swaps the channel's head so the request goes first.
// With FIFO channels (dist.New) the mapping verifies; see
// mapping_test.go.
func TestUnorderedChannelBreaksH2(t *testing.T) {
	tr, err := graph.Figure32()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := dist.NewWithFaults(tr, 0, faults.Injection{Adversary: []faults.Class{faults.Reorder}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewChain(sys)
	if err != nil {
		t.Fatal(err)
	}
	h2 := c.H2
	err = h2.VerifyOpts(explore.Options{Limit: 200000})
	if !errors.Is(err, proof.ErrNotPossibilities) {
		t.Fatalf("expected the unordered message system to break h2, got %v", err)
	}
	for _, want := range []string{
		"request(b(a1,a2),a2)",
		`no matching step of A2 from possibility "03100001100000"`,
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("counterexample %q does not name %s", err, want)
		}
	}
	t.Logf("counterexample found as expected: %v", err)
}
