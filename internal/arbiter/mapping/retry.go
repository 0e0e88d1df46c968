package mapping

import (
	"fmt"

	"repro/internal/arbiter/dist"
	"repro/internal/arbiter/graphlevel"
	"repro/internal/graph"
	"repro/internal/ioa"
	"repro/internal/proof"
)

// H2RMap is the state function underlying h₂ʳ: the possibilities
// mapping from the retry-hardened A₃ʳ (renamed by f₂) to A₂ over the
// buffer-augmented graph 𝒢. It reuses the U1–U4/A1–A3 conditions of
// h₂ on the unchanged process states; the one clause that differed —
// A4, "a grant is in transit on channel (a,a')" — is answered by the
// link automata's abstract in-transit predicate instead of the
// message multiset of M.
//
// That predicate (dist.Hardened.InTransit) never consults the packet
// network's queues, which is what makes h₂ʳ a possibilities mapping
// in the presence of faults: packet drops, duplicate deliveries,
// retransmissions, and stale-ack arrivals all leave the image state
// unchanged (mapping condition 2(b) with an empty corresponding A₂
// execution fragment), while the external send/receive actions step
// A₂ exactly as they did for the plain A₃. Safety of the
// alternating-bit links requires channels that are FIFO up to loss
// and duplication; under reordering or delay injections the mapping
// check is expected to fail, and the chaos harness demonstrates it.
type H2RMap struct {
	// Sys is the retry-hardened distributed system (over G).
	Sys *dist.Hardened
	// Aug is the buffer-augmented graph 𝒢.
	Aug *graph.Tree
}

// NewH2RMap prepares the h₂ʳ state function.
func NewH2RMap(sys *dist.Hardened, aug *graph.Tree) *H2RMap {
	return &H2RMap{Sys: sys, Aug: aug}
}

// Apply maps a composite state of A₃ʳ to the corresponding state of
// A₂ over 𝒢.
func (h *H2RMap) Apply(st ioa.State) (*graphlevel.State, error) {
	g := h.Sys.Tree
	return deriveArrows(g, h.Aug, h.Sys.Order,
		func(a int) (*dist.ProcState, error) { return h.Sys.ProcStateOf(st, a) },
		func(a, v int) (bool, error) {
			return h.Sys.InTransit(st, g.Node(a).Name, g.Node(v).Name, dist.KindGrant)
		})
}

// H2R builds the possibilities mapping h₂ʳ from a3rr = f₂(A₃ʳ) to
// a2 = A₂ over 𝒢. Like h₂ it is functional. A₃ʳ's state space is
// unbounded (retransmission counters in the packet network), so use
// Correspond along sampled fair executions rather than exhaustive
// Verify.
func (h *H2RMap) H2R(a3rr, a2 ioa.Automaton) *proof.PossMapping {
	return &proof.PossMapping{
		A: a3rr,
		B: a2,
		Map: func(st ioa.State) []ioa.State {
			mapped, err := h.Apply(st)
			if err != nil {
				return nil
			}
			return []ioa.State{mapped}
		},
	}
}

// StartEdge computes the initial grant-arrow edge of A₂ over 𝒢
// matching h₂ʳ of the hardened system's start state, exactly as
// H2Map.StartEdge does for the plain system.
func (h *H2RMap) StartEdge() (from, at int, err error) {
	start := h.Sys.Composite.Start()[0]
	for _, a := range h.Sys.Order {
		ps, perr := h.Sys.ProcStateOf(start, a)
		if perr != nil {
			return 0, 0, perr
		}
		if !ps.Holding() {
			continue
		}
		v := h.Sys.Tree.Neighbors(a)[ps.LastForward()]
		if h.Sys.Tree.Node(v).Kind == graph.User {
			return v, a, nil
		}
		b, berr := h.Aug.BufferBetween(a, v)
		if berr != nil {
			return 0, 0, berr
		}
		return b, a, nil
	}
	return 0, 0, fmt.Errorf("mapping: no process holds the resource in the start state")
}
