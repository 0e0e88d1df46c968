package dist

import (
	"context"
	"slices"
	"testing"

	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/ioa"
	"repro/internal/proof"
	"repro/internal/sim"
)

func figSystem(t *testing.T) (*graph.Tree, *System) {
	t.Helper()
	tr, err := graph.Figure32()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr, sys
}

func TestProcessValidate(t *testing.T) {
	tr, sys := figSystem(t)
	for _, a := range tr.NodesOf(graph.Arbiter) {
		if err := ioa.Validate(sys.Procs[a]); err != nil {
			t.Errorf("process %s: %v", tr.Node(a).Name, err)
		}
		if !ioa.IsPrimitive(sys.Procs[a]) {
			t.Errorf("process %s must be primitive", tr.Node(a).Name)
		}
	}
	if err := ioa.Validate(sys.Msg); err != nil {
		t.Errorf("message system: %v", err)
	}
}

func TestInitialHolderState(t *testing.T) {
	tr, sys := figSystem(t)
	start := sys.Composite.Start()[0]
	holders := 0
	for _, a := range tr.NodesOf(graph.Arbiter) {
		ps, err := sys.ProcStateOf(start, a)
		if err != nil {
			t.Fatal(err)
		}
		if ps.Holding() {
			holders++
			if a != 0 {
				t.Errorf("wrong initial holder %s", tr.Node(a).Name)
			}
		} else {
			// lastForward points toward the holder.
			lf := tr.Neighbors(a)[ps.LastForward()]
			if !tr.PointsToward(a, lf, 0) {
				t.Errorf("process %s lastForward %s does not point toward the holder",
					tr.Node(a).Name, tr.Node(lf).Name)
			}
		}
		if ps.Requested() {
			t.Errorf("process %s starts with requested set", tr.Node(a).Name)
		}
	}
	if holders != 1 {
		t.Fatalf("holders = %d", holders)
	}
}

func TestProcessSendRequestCycle(t *testing.T) {
	tr, sys := figSystem(t)
	// Process a2 (ID 1) starts not holding, lastForward toward a1.
	p := sys.Procs[1]
	s := p.Start()[0]
	a2Name := tr.Node(1).Name
	// Receiving a request from u2 enables exactly sendrequest(a2,a1).
	s2, _ := ioa.StepTo(p, s, ReceiveRequest("u2", a2Name), 0)
	enabled := p.Enabled(s2)
	if len(enabled) != 1 || enabled[0] != SendRequest(a2Name, "a1") {
		t.Fatalf("enabled = %v, want sendrequest(a2,a1)", enabled)
	}
	// After sending, nothing is enabled (requested flag set).
	s3, _ := ioa.StepTo(p, s2, SendRequest(a2Name, "a1"), 0)
	if got := p.Enabled(s3); len(got) != 0 {
		t.Fatalf("after sendrequest, enabled = %v", got)
	}
	// The grant arrives from a1: holding, requested cleared; grant to
	// u2 becomes enabled.
	s4, _ := ioa.StepTo(p, s3, ReceiveGrant("a1", a2Name), 0)
	ps := s4.(*ProcState)
	if !ps.Holding() || ps.Requested() {
		t.Fatalf("after receivegrant: %v", ps.Key())
	}
	enabled = p.Enabled(s4)
	if len(enabled) != 1 || enabled[0] != SendGrant(a2Name, "u2") {
		t.Fatalf("enabled = %v, want sendgrant(a2,u2)", enabled)
	}
}

func TestProcessIgnoresUnexpectedGrant(t *testing.T) {
	_, sys := figSystem(t)
	p := sys.Procs[1] // lastForward toward a1
	s := p.Start()[0]
	// A grant from u2 (not the lastForward direction) is ignored.
	s2, _ := ioa.StepTo(p, s, ReceiveGrant("u2", "a2"), 0)
	if s2.Key() != s.Key() {
		t.Error("grant from wrong direction must be ignored")
	}
}

func TestProcessGrantWindowRule(t *testing.T) {
	tr, err := graph.Star(3)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Procs[0]
	s := p.Start()[0]
	// Initial holder a0: lastForward = first neighbor u0.
	// All three users request; the window rule picks u1 (first after
	// u0).
	for _, u := range []string{"u0", "u1", "u2"} {
		s, _ = ioa.StepTo(p, s, ReceiveRequest(u, "a0"), 0)
	}
	enabled := p.Enabled(s)
	if len(enabled) != 1 || enabled[0] != SendGrant("a0", "u1") {
		t.Fatalf("enabled = %v, want sendgrant(a0,u1)", enabled)
	}
}

func TestMessageSystemFIFO(t *testing.T) {
	tr, _ := figSystem(t)
	m, err := NewMessageSystem(tr)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Start()[0]
	// Send grant then request on the same channel a1→a2.
	s, _ = ioa.StepTo(m, s, SendGrant("a1", "a2"), 0)
	s, _ = ioa.StepTo(m, s, SendRequest("a1", "a2"), 0)
	enabled := ioa.NewSet(m.Enabled(s)...)
	if !enabled.Has(ReceiveGrant("a1", "a2")) {
		t.Error("head of queue (grant) must be deliverable")
	}
	if enabled.Has(ReceiveRequest("a1", "a2")) {
		t.Error("FIFO: request behind grant must not be deliverable")
	}
	// Deliver the grant; then the request unblocks.
	s, _ = ioa.StepTo(m, s, ReceiveGrant("a1", "a2"), 0)
	enabled = ioa.NewSet(m.Enabled(s)...)
	if !enabled.Has(ReceiveRequest("a1", "a2")) {
		t.Error("after grant delivery, the request must be deliverable")
	}
	// Independent channels are unaffected.
	s2 := m.Start()[0]
	s2, _ = ioa.StepTo(m, s2, SendGrant("a1", "a2"), 0)
	s2, _ = ioa.StepTo(m, s2, SendRequest("a2", "a1"), 0)
	enabled = ioa.NewSet(m.Enabled(s2)...)
	if !enabled.Has(ReceiveRequest("a2", "a1")) || !enabled.Has(ReceiveGrant("a1", "a2")) {
		t.Error("different channels must deliver independently")
	}
}

// TestMessageSystemUnordered: the Reorder adversary gives M back the
// literal Figure 3.6 freedom — once the channel's head is swapped, the
// request sent behind a grant is delivered first and the grant stays
// in transit.
func TestMessageSystemUnordered(t *testing.T) {
	tr, _ := figSystem(t)
	m, err := NewFaultyMessageSystem(tr, faults.Injection{Adversary: []faults.Class{faults.Reorder}})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Start()[0]
	s, _ = ioa.StepTo(m, s, SendGrant("a1", "a2"), 0)
	s, _ = ioa.StepTo(m, s, SendRequest("a1", "a2"), 0)
	s, ok := ioa.StepTo(m, s, faults.ReorderAction("a1", "a2"), 0)
	if !ok {
		t.Fatal("reorder must be enabled with two messages on the channel")
	}
	enabled := ioa.NewSet(m.Enabled(s)...)
	if !enabled.Has(ReceiveRequest("a1", "a2")) || enabled.Has(ReceiveGrant("a1", "a2")) {
		t.Errorf("after the swap only the request may be delivered: %v", m.Enabled(s))
	}
	// Deliver out of order; the other message survives.
	s, _ = ioa.StepTo(m, s, ReceiveRequest("a1", "a2"), 0)
	ms := s.(*faults.NetState)
	if !ms.Has("a1", "a2", KindGrant) || ms.Len() != 1 {
		t.Errorf("after out-of-order delivery: %v", ms.Key())
	}
}

// TestLemma42FairProcessSatisfiesC: every fair execution of a process
// A_a satisfies C_a. Decided exactly for each process of Figure 3.2
// alone, its inputs free — the most general environment; a round-robin
// run of a2 with a driver feeding it inputs stays as a smoke test.
func TestLemma42FairProcessSatisfiesC(t *testing.T) {
	tr, sys := figSystem(t)
	for _, a := range tr.NodesOf(graph.Arbiter) {
		conds := Ca(tr, a)
		lassos, err := proof.CheckLeadsTo(context.Background(), sys.Procs[a], explore.Options{}, conds...)
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range lassos {
			if l != nil {
				t.Errorf("%s refuted on %s: stem %s, cycle %s", conds[i].Name, sys.Procs[a].Name(),
					ioa.TraceString(l.Stem.Acts), ioa.TraceString(l.Cycle))
			}
		}
	}

	// Drive a2 (ID 1) with scripted inputs: a request from u2 arrives,
	// then the grant from a1 arrives whenever a2 has requested.
	p := sys.Procs[1]
	d := ioa.NewDef("driver")
	d.Start(ioa.KeyState("0"))
	d.Output(ReceiveRequest("u2", "a2"), "drv",
		func(s ioa.State) bool { return s.Key() == "0" },
		func(ioa.State) ioa.State { return ioa.KeyState("1") })
	d.Input(SendRequest("a2", "a1"), func(s ioa.State) ioa.State {
		if s.Key() == "1" {
			return ioa.KeyState("2")
		}
		return s
	})
	d.Output(ReceiveGrant("a1", "a2"), "drv",
		func(s ioa.State) bool { return s.Key() == "2" },
		func(ioa.State) ioa.State { return ioa.KeyState("3") })
	drv := d.MustBuild()
	closed, err := ioa.Compose("drive-a2", p, drv)
	if err != nil {
		t.Fatal(err)
	}
	x, err := sim.Run(closed, &sim.RoundRobin{}, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := closed.ProjectExecution(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	conds := Ca(tr, 1)
	if !proof.Satisfies(proj, conds) {
		t.Errorf("fair run leaves process obligations pending: %v",
			proof.Pending(proj, conds))
	}
	// The process must end having granted to u2.
	granted := false
	for _, act := range proj.Acts {
		if act == SendGrant("a2", "u2") {
			granted = true
		}
	}
	if !granted {
		t.Error("a2 never granted to u2")
	}
}

// TestA3HidesInternalTraffic: only user-facing actions are external.
func TestA3Signature(t *testing.T) {
	tr, sys := figSystem(t)
	sig := sys.A3.Sig()
	for _, a := range tr.NodesOf(graph.Arbiter) {
		for _, v := range tr.Neighbors(a) {
			an, vn := tr.Node(a).Name, tr.Node(v).Name
			if tr.Node(v).Kind == graph.User {
				if !sig.IsOutput(SendGrant(an, vn)) {
					t.Errorf("sendgrant(%s,%s) must stay external", an, vn)
				}
				if !sig.IsInternal(SendRequest(an, vn)) {
					t.Errorf("sendrequest(%s,%s) must be hidden", an, vn)
				}
				if !sig.IsInput(ReceiveRequest(vn, an)) {
					t.Errorf("receiverequest(%s,%s) must be an input", vn, an)
				}
			} else {
				if !sig.IsInternal(SendGrant(an, vn)) || !sig.IsInternal(ReceiveGrant(an, vn)) {
					t.Errorf("arbiter-arbiter traffic %s→%s must be hidden", an, vn)
				}
			}
		}
	}
}

// TestC3OnFairRuns: the global conditions C3 resolve along fair runs
// of the closed system.
func TestC3OnFairRuns(t *testing.T) {
	tr, sys := figSystem(t)
	users := make([]ioa.Automaton, 0, 3)
	for _, u := range tr.NodesOf(graph.User) {
		users = append(users, userDriver(t, tr.Node(u).Name, tr.Node(tr.UserAttachment(u)).Name))
	}
	closed, err := ioa.Compose("closed3", append([]ioa.Automaton{sys.A3}, users...)...)
	if err != nil {
		t.Fatal(err)
	}
	x, err := sim.Run(closed, &sim.RoundRobin{}, 800, nil)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := closed.ProjectExecution(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	lat := proof.MaxLatency(proj.Prefix(proj.Len()-100), sys.C3())
	for cond, l := range lat {
		if l > 300 {
			t.Errorf("condition %s latency %d", cond, l)
		}
	}
}

// userDriver speaks the raw level-3 user interface.
func userDriver(t *testing.T, user, arb string) *ioa.Prog {
	t.Helper()
	d := ioa.NewDef("U_" + user)
	d.Start(ioa.KeyState("idle"))
	d.Output(ReceiveRequest(user, arb), user,
		func(s ioa.State) bool { return s.Key() == "idle" },
		func(ioa.State) ioa.State { return ioa.KeyState("waiting") })
	d.Input(SendGrant(arb, user), func(s ioa.State) ioa.State {
		if s.Key() == "waiting" {
			return ioa.KeyState("holding")
		}
		return s
	})
	d.Output(ReceiveGrant(user, arb), user,
		func(s ioa.State) bool { return s.Key() == "holding" },
		func(ioa.State) ioa.State { return ioa.KeyState("idle") })
	return d.MustBuild()
}

// TestReachableStateSpaceMutualExclusion: across the reachable states
// of A3, at most one user-facing holder exists (a user holds iff its
// attachment process last forwarded to it and is not holding).
func TestReachableStateSpaceMutualExclusion(t *testing.T) {
	tr, sys := figSystem(t)
	states, err := explore.New(explore.Options{Limit: 500000}).Reach(context.Background(), sys.A3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range states {
		holders := 0
		for _, u := range tr.NodesOf(graph.User) {
			a := tr.UserAttachment(u)
			ps, err := sys.ProcStateOf(s, a)
			if err != nil {
				t.Fatal(err)
			}
			ui := slices.Index(tr.Neighbors(a), u)
			if !ps.Holding() && ps.LastForward() == ui {
				holders++
			}
		}
		if holders > 1 {
			t.Fatalf("state %q has %d user holders", s.Key(), holders)
		}
	}
	t.Logf("checked %d reachable states", len(states))
}

// TestLossyChannelBreaksDelivery is failure injection on C_M: a
// message system whose Drop adversary may lose a channel head violates
// DelGr, and a dropped grant loses the resource forever — the system
// deadlocks (no further grants), demonstrating the delivery conditions
// are load-bearing for no-lockout.
func TestLossyChannelBreaksDelivery(t *testing.T) {
	tr, err := graph.Figure32()
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := NewFaultyMessageSystem(tr, faults.Injection{Adversary: []faults.Class{faults.Drop}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ioa.Validate(lossy); err != nil {
		t.Fatal(err)
	}
	// Put a grant in transit a1→a2 and drop it.
	s := lossy.Start()[0]
	s, _ = ioa.StepTo(lossy, s, SendGrant("a1", "a2"), 0)
	dropped, ok := ioa.StepTo(lossy, s, ioa.Act("drop", "a1", "a2"), 0)
	if !ok {
		t.Fatal("drop must be enabled with a message in transit")
	}
	ms := dropped.(*faults.NetState)
	if ms.Len() != 0 {
		t.Fatalf("message not dropped: %v", ms.Key())
	}
	// The DelGr condition is now unsatisfiable: its S predicate never
	// holds again (the message is gone), but the obligation opened
	// while the message was in flight was never discharged. Check with
	// an explicit execution.
	x := ioa.NewExecution(lossy, lossy.Start()[0])
	if err := x.Extend(SendGrant("a1", "a2"), 0); err != nil {
		t.Fatal(err)
	}
	if err := x.Extend(ioa.Act("drop", "a1", "a2"), 0); err != nil {
		t.Fatal(err)
	}
	cond := &proof.LeadsTo{
		Name: "DelGr(a1,a2)",
		S: func(st ioa.State) bool {
			m, ok := st.(*faults.NetState)
			return ok && m.Has("a1", "a2", KindGrant)
		},
		T: func(a ioa.Action) bool { return a == ReceiveGrant("a1", "a2") },
	}
	if proof.Satisfies(x, []*proof.LeadsTo{cond}) {
		t.Fatal("DelGr must be pending after the drop")
	}
}

// TestIdleInputReturnsItsState: over every reachable state of each
// arbiter process at four users, receiverequest(v,a) from a neighbor
// whose request is already recorded yields the state it was given,
// pointer-equal.
func TestIdleInputReturnsItsState(t *testing.T) {
	tr, err := graph.BinaryTree(4)
	if err != nil {
		t.Fatal(err)
	}
	arbiters := tr.NodesOf(graph.Arbiter)
	idle := 0
	for _, a := range arbiters {
		p, err := NewProcess(tr, a, arbiters[0])
		if err != nil {
			t.Fatal(err)
		}
		reach, err := explore.New(explore.Options{}).Reach(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range reach {
			s := st.(*ProcState)
			for i, v := range tr.Neighbors(a) {
				if !s.Requesting(i) {
					continue
				}
				idle++
				act := ReceiveRequest(tr.Node(v).Name, tr.Node(a).Name)
				if got := ioa.Successors(p, s, act); len(got) != 1 || got[0] != st {
					t.Fatalf("%s from %s: yields %d state(s), not the state itself", act, s.Key(), len(got))
				}
			}
		}
	}
	if idle == 0 {
		t.Fatal("no process state with a recorded request: the test checks nothing")
	}
}
