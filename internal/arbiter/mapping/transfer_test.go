package mapping

import (
	"testing"

	"repro/internal/arbiter/graphlevel"
	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/ioa"
)

// TestLemma40ConditionTransfer mechanizes the set inclusions behind
// Lemma 40 (E₂′ satisfies E₁) via Lemma 32(2): for each user u,
// transferring GrRes₂(u) down h₁ yields GrRes₁(u), because
//
//	GrRes₂ˢ(u)′ ⊇ h₁⁻¹(GrRes₁ˢ(u))  (a requesting user at level 1 is
//	                                 one with a request arrow at level 2)
//	GrRes₂ᵃ(u)′ ⊆ GrRes₁ᵃ(u)        (the renamed grant action coincides)
//
// and symmetrically RtnRes₁ pushes up to RtnRes₂. The inclusions are
// checked over every reachable state.
func TestLemma40ConditionTransfer(t *testing.T) {
	tr := figure32(t)
	c := buildChain(t, tr, 0)

	for _, u := range c.Aug.NodesOf(graph.User) {
		u := u
		att := c.Aug.UserAttachment(u)
		uName := c.Aug.Node(u).Name
		uIdx := userIndex(c.Aug, u)

		// GrRes₂ˢ(u)′ as a predicate on (renamed) A2 states.
		s := func(st ioa.State) bool {
			gs, ok := st.(*graphlevel.State)
			return ok && gs.HasRequest(u, att)
		}
		tAct := func(a ioa.Action) bool { return a == ioa.Act("grant", uName) }
		// GrRes₁ˢ(u) on spec states.
		uPred := func(st ioa.State) bool {
			return st.(interface{ Requesting(int) bool }).Requesting(uIdx)
		}
		if err := c.H1.TransferDownOpts(explore.Options{Limit: 200000}, s, tAct, uPred, tAct); err != nil {
			t.Errorf("GrRes transfer for %s: %v", uName, err)
		}

		// RtnRes: holder=u at level 1 ⟹ grant arrow on (a,u) at level 2.
		sRtn := func(st ioa.State) bool {
			gs, ok := st.(*graphlevel.State)
			return ok && gs.HasGrant(att, u)
		}
		tRtn := func(a ioa.Action) bool { return a == ioa.Act("return", uName) }
		uRtn := func(st ioa.State) bool {
			return st.(interface{ Holder() int }).Holder() == uIdx
		}
		if err := c.H1.TransferDownOpts(explore.Options{Limit: 200000}, sRtn, tRtn, uRtn, tRtn); err != nil {
			t.Errorf("RtnRes transfer for %s: %v", uName, err)
		}
	}
}

func userIndex(tr *graph.Tree, u int) int {
	for i, id := range tr.NodesOf(graph.User) {
		if id == u {
			return i
		}
	}
	return -1
}
