package mapping

import (
	"errors"
	"testing"

	"repro/internal/arbiter/dist"
	"repro/internal/arbiter/users"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/ioa"
	"repro/internal/proof"
	"repro/internal/sim"
)

// buildHardenedChain builds the hierarchy over the retry-hardened A₃ʳ
// on tr, inj applied to its packet network.
func buildHardenedChain(t *testing.T, tr *graph.Tree, holder int, inj faults.Injection) (*dist.Hardened, *Chain) {
	t.Helper()
	sys, err := dist.NewHardened(tr, holder, inj)
	if err != nil {
		t.Fatalf("dist.NewHardened: %v", err)
	}
	c, err := NewChain(sys)
	if err != nil {
		t.Fatalf("NewChain: %v", err)
	}
	return sys, c
}

// TestHardenedExternalSignaturesAlign: ext(f₂(A₃ʳ)) = ext(A₂), the
// precondition for h₂ over A₃ʳ to be a possibilities mapping at all.
func TestHardenedExternalSignaturesAlign(t *testing.T) {
	_, c := buildHardenedChain(t, figure32(t), 0, faults.Injection{})
	if !c.A3r.Sig().External().Equal(c.A2.Sig().External()) {
		t.Errorf("ext(f2(A3R)) != ext(A2):\n%v\n%v", c.A3r.Sig().External(), c.A2.Sig().External())
	}
}

// lastIndices scans a run of the closed (arbiter ∘ users) system and
// records, per user, the position of the last request(u) and the last
// grant(u) action, plus the total grant count per user.
func lastIndices(x *ioa.Execution, names []string) (lastReq, lastGrant, grants []int) {
	lastReq = make([]int, len(names))
	lastGrant = make([]int, len(names))
	grants = make([]int, len(names))
	for u := range names {
		lastReq[u], lastGrant[u] = -1, -1
	}
	for i, act := range x.Acts {
		for u, name := range names {
			switch act {
			case ioa.Act("request", name):
				lastReq[u] = i
			case ioa.Act("grant", name):
				lastGrant[u] = i
				grants[u]++
			}
		}
	}
	return lastReq, lastGrant, grants
}

// runClosed composes the (f₁∘f₂)-renamed arbiter with heavy-load
// users and runs it fairly for maxSteps.
func runClosed(t *testing.T, arb ioa.Automaton, names []string, maxSteps int) *ioa.Execution {
	t.Helper()
	env := users.HeavyLoad(names)
	closed, err := ioa.Compose("closed", append([]ioa.Automaton{arb}, users.Automata(env)...)...)
	if err != nil {
		t.Fatal(err)
	}
	x, err := sim.Run(closed, &sim.RoundRobin{}, maxSteps, nil)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// holdersAt counts resource holders visible in a composite state of
// the hardened system: processes with holding = true, plus users u
// whose attachment process has forwarded to u and not yet received
// the resource back (¬holding ∧ lastforward = u). In every reachable
// state of a correct arbiter this count is at most one — the token is
// unique.
func holdersAt(t *testing.T, h *dist.Hardened, st ioa.State) int {
	t.Helper()
	tr := h.Tree
	n := 0
	for _, a := range h.Order {
		ps, err := h.ProcStateOf(st, a)
		if err != nil {
			t.Fatal(err)
		}
		if ps.Holding() {
			n++
			continue
		}
		v := tr.Neighbors(a)[ps.LastForward()]
		if tr.Node(v).Kind == graph.User {
			n++
		}
	}
	return n
}

// TestChaosEndToEnd is the acceptance test of the fault-injection
// work: under one and the same seeded drop+duplicate schedule,
//
//   - the plain A₃ (whose channels silently lose messages) violates
//     no-lockout — a user's request is eventually never answered,
//     because a lost grant message destroys the resource token; while
//   - the retry-hardened A₃ʳ keeps serving every user, and its fair
//     executions still lift through h₂ and h₁ all the way to the
//     specification A₁ — the possibilities-mapping conditions hold
//     along every sampled execution, and mutual exclusion (token
//     uniqueness) holds in every reached state.
func TestChaosEndToEnd(t *testing.T) {
	tr := figure32(t)
	names := []string{"u1", "u2", "u3"}
	prof := faults.Profile{Drop: 0.3, Duplicate: 0.15}

	t.Run("plainA3StarvesUnderFaults", func(t *testing.T) {
		sched, err := faults.NewSchedule(1, prof)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := dist.NewWithFaults(tr, 0, faults.Injection{Sched: sched})
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewChain(sys)
		if err != nil {
			t.Fatal(err)
		}
		x := runClosed(t, c.Arb, names, 4000)
		lastReq, lastGrant, grants := lastIndices(x, names)
		t.Logf("plain A3, %s seed=1: %d steps, grants per user %v", prof, x.Len(), grants)
		starved := -1
		for u := range names {
			if lastReq[u] >= 0 && lastGrant[u] < lastReq[u] && x.Len()-lastReq[u] > 500 {
				starved = u
			}
		}
		if starved < 0 {
			t.Fatalf("expected a starved user under %s: lastReq=%v lastGrant=%v of %d steps",
				prof, lastReq, lastGrant, x.Len())
		}
		t.Logf("user %s requested at step %d and was never granted again (run length %d): no-lockout violated",
			names[starved], lastReq[starved], x.Len())
	})

	t.Run("hardenedA3RSurvivesAndRefines", func(t *testing.T) {
		for _, seed := range []int64{1, 2, 3} {
			sched, err := faults.NewSchedule(seed, prof)
			if err != nil {
				t.Fatal(err)
			}
			sys, c := buildHardenedChain(t, tr, 0, faults.Injection{Sched: sched})
			x := runClosed(t, c.Arb, names, 6000)
			_, _, grants := lastIndices(x, names)
			t.Logf("A3R, %s seed=%d: %d steps, grants per user %v", prof, seed, x.Len(), grants)
			for u, g := range grants {
				if g == 0 {
					t.Errorf("seed %d: user %s never granted in %d steps", seed, names[u], x.Len())
				}
			}

			// Lift the composite run back to an execution of f₂(A₃ʳ),
			// and through h₂ and h₁ to A₁.
			l, err := c.Lift(x)
			if l == nil {
				t.Fatal(err)
			}

			// Mutual exclusion: the token stays unique in every state.
			for i, st := range l.X3.States {
				if n := holdersAt(t, sys, st); n > 1 {
					t.Fatalf("seed %d: %d simultaneous holders at step %d", seed, n, i)
				}
			}

			// Refinement of A₂ (h₂ holds along the execution) and of A₁
			// (h₁ holds along the corresponding A₂ run).
			if err != nil {
				t.Fatalf("seed %d: a fair execution does not lift: %v", seed, err)
			}
			x1 := l.X1

			// No-lockout at the specification level: away from the
			// tail, every request obligation is served.
			var goals []*proof.LeadsTo
			for u := range names {
				goals = append(goals, specGrRes(names, u))
			}
			prefix := x1.Prefix(x1.Len() - 10)
			if pend := proof.Pending(prefix, goals); len(pend) > 0 {
				for _, p := range pend {
					if prefix.Len()-p.From > 1500 {
						t.Errorf("seed %d: obligation %s pending since step %d of %d",
							seed, p.Cond.Name, p.From, prefix.Len())
					}
				}
			}
		}
	})
}

// TestReorderBreaksHardenedArbiter marks the boundary of the
// hardening: the alternating-bit links tolerate loss and duplication
// but assume channels are FIFO. A reordering adversary can hold back
// a stale grant packet (left over from a retransmission) until the
// channel's alternating bit has cycled back, at which point the
// receiver accepts it as a fresh grant — the token is duplicated, two
// processes hold simultaneously, and two users end up granted at
// once. The same execution refutes h₂ over A₃ʳ: Correspond reports a
// possibilities-mapping violation, mirroring
// TestUnorderedChannelBreaksH2 one level up.
func TestReorderBreaksHardenedArbiter(t *testing.T) {
	tr := figure32(t)
	sys, c := buildHardenedChain(t, tr, 0, faults.Injection{Adversary: []faults.Class{faults.Reorder}})
	f2, err := sys.F2(c.Aug)
	if err != nil {
		t.Fatal(err)
	}
	a := sys.Composite
	s := a.Start()[0]
	x3 := ioa.NewExecution(c.A3r, s)

	step := func(act ioa.Action) {
		t.Helper()
		next, ok := ioa.StepTo(a, s, act, 0)
		if !ok {
			t.Fatalf("action %s not enabled from %s", act, s.Key())
		}
		s = next
		if err := x3.Extend(f2.Apply(act), 0); err != nil {
			t.Fatalf("extend %s: %v", act, err)
		}
	}
	proc := func(i int) *dist.ProcState {
		t.Helper()
		ps, err := sys.ProcStateOf(s, i)
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}

	const (
		req = dist.KindRequest
		gr  = dist.KindGrant
		ack = dist.KindAck
	)

	// Round 1: u2 requests; the grant a1→a2 (channel bit 0) is
	// retransmitted once, so a stale copy of grant/0 stays behind on
	// the channel after the first copy completes its handshake.
	step(dist.ReceiveRequest("u2", "a2"))
	step(dist.SendRequest("a2", "a1"))
	step(dist.Xmit("a2", "a1", req, 0))
	step(dist.Dlvr("a2", "a1", req, 0))
	step(dist.ReceiveRequest("a2", "a1"))
	step(dist.Xmit("a1", "a2", ack, 0))
	step(dist.Dlvr("a1", "a2", ack, 0))
	step(dist.SendGrant("a1", "a2"))
	step(dist.Xmit("a1", "a2", gr, 0))
	step(dist.Xmit("a1", "a2", gr, 0)) // retransmission: a second grant/0 packet
	step(dist.Dlvr("a1", "a2", gr, 0)) // the first copy is consumed; the stale one remains queued
	step(dist.Xmit("a2", "a1", ack, 0))
	step(dist.Dlvr("a2", "a1", ack, 0))
	step(dist.ReceiveGrant("a1", "a2"))
	step(dist.SendGrant("a2", "u2"))
	step(dist.ReceiveGrant("u2", "a2"))

	// Round 2: u1 requests, so a1 forwards a request on the same
	// channel — the second channel message, carrying bit 1. The
	// adversary reorders it past the stale grant/0; once it is
	// accepted, the receiver's expected bit cycles back to 0 and the
	// stale grant/0 is accepted as a second, phantom grant.
	step(dist.ReceiveRequest("u1", "a1"))
	step(dist.SendRequest("a1", "a2"))
	step(dist.Xmit("a1", "a2", req, 1))
	step(faults.ReorderAction("a1", "a2")) // [grant/0 request/1] -> [request/1 grant/0]
	step(dist.Dlvr("a1", "a2", req, 1))
	step(dist.Dlvr("a1", "a2", gr, 0)) // the stale grant is accepted: a phantom token is born
	lr, err := sys.ReceiverStateOf(s, "a1", "a2")
	if err != nil {
		t.Fatal(err)
	}
	if q := lr.Deliver(); len(q) != 2 || q[1] != gr {
		t.Fatalf("expected a phantom grant in the delivery queue, got %s", lr.Key())
	}
	// a2 sees the request and sends the real token back toward a1;
	// the phantom delivery is still pending, and because a2 now
	// points toward a1 it accepts the phantom as a fresh grant.
	step(dist.ReceiveRequest("a1", "a2"))
	step(dist.SendGrant("a2", "a1"))
	step(dist.Xmit("a2", "a1", gr, 1))
	step(dist.Dlvr("a2", "a1", gr, 1))
	step(dist.ReceiveGrant("a2", "a1")) // the real token: a1 holds
	step(dist.ReceiveGrant("a1", "a2")) // the phantom token: a2 holds too

	if !proc(0).Holding() || !proc(1).Holding() {
		t.Fatalf("expected both a1 and a2 to hold: a1=%s a2=%s", proc(0).Key(), proc(1).Key())
	}
	t.Logf("mutual exclusion violated: a1=%s a2=%s", proc(0).Key(), proc(1).Key())

	// Both processes pass "their" token on to a user: two users hold
	// the resource at once.
	step(dist.SendGrant("a1", "u1"))
	step(dist.ReceiveRequest("u2", "a2"))
	step(dist.SendGrant("a2", "u2"))
	a1s, a2s := proc(0), proc(1)
	u1Holds := !a1s.Holding() && tr.Neighbors(0)[a1s.LastForward()] == 3
	u2Holds := !a2s.Holding() && tr.Neighbors(1)[a2s.LastForward()] == 4
	if !u1Holds || !u2Holds {
		t.Fatalf("expected u1 and u2 granted simultaneously: a1=%s a2=%s", a1s.Key(), a2s.Key())
	}

	// The same execution refutes h₂ over A₃ʳ: under reordering it is not a
	// possibilities mapping.
	if _, err := c.H2.Correspond(x3); !errors.Is(err, proof.ErrNotPossibilities) {
		t.Fatalf("expected %v along the reordered execution, got %v", proof.ErrNotPossibilities, err)
	} else {
		t.Logf("h2 over A3R correctly refuted under reordering: %v", err)
	}
}
