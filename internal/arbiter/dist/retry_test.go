package dist

import (
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/ioa"
)

func hardenedFig(t *testing.T, inj faults.Injection) (*graph.Tree, *Hardened) {
	t.Helper()
	tr, err := graph.Figure32()
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHardened(tr, 0, inj)
	if err != nil {
		t.Fatal(err)
	}
	return tr, h
}

func TestHardenedValidate(t *testing.T) {
	_, h := hardenedFig(t, faults.Injection{})
	for key, ls := range h.Senders {
		if err := ioa.Validate(ls); err != nil {
			t.Errorf("sender %s: %v", key, err)
		}
	}
	for key, lr := range h.Receivers {
		if err := ioa.Validate(lr); err != nil {
			t.Errorf("receiver %s: %v", key, err)
		}
	}
	if err := ioa.Validate(h.Net); err != nil {
		t.Error(err)
	}
	if err := ioa.Validate(h.A3); err != nil {
		t.Error(err)
	}
}

// TestHardenedExternalInterface: A₃ʳ presents exactly the external
// signature of the plain A₃ — the hardening is invisible to users,
// which is what lets both refine the same A₂.
func TestHardenedExternalInterface(t *testing.T) {
	tr, h := hardenedFig(t, faults.Injection{})
	sys, err := New(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.A3.Sig().External().Equal(h.A3.Sig().External()) {
		t.Fatalf("external signatures differ:\nA3:  %s\nA3R: %s",
			sys.A3.Sig().External(), h.A3.Sig().External())
	}
}

// TestAlternatingBitSurvivesDropAndDup walks a scripted execution of
// A₃ʳ over an adversary drop+duplicate network: a request crosses the
// a2→a1 channel despite a dropped packet, the returning ack is
// duplicated and the duplicate ignored, and the grant then flows
// a1→a2 — exactly-once delivery end to end.
func TestAlternatingBitSurvivesDropAndDup(t *testing.T) {
	tr, h := hardenedFig(t, faults.Injection{Adversary: []faults.Class{faults.Drop, faults.Duplicate}})
	a := h.Composite
	s := a.Start()[0]

	mustStep := func(act ioa.Action) {
		t.Helper()
		next, ok := ioa.StepTo(a, s, act, 0)
		if !ok {
			t.Fatalf("action %s not enabled from %s", act, s.Key())
		}
		s = next
	}
	transit := func(from, to, kind string) bool {
		t.Helper()
		in, err := h.InTransit(s)
		if err != nil {
			t.Fatal(err)
		}
		return in.Has(from, to, kind)
	}

	// u2 asks a2; a2 forwards the request toward the holder a1.
	mustStep(ReceiveRequest("u2", "a2"))
	mustStep(SendRequest("a2", "a1"))
	if !transit("a2", "a1", KindRequest) {
		t.Fatal("request must be logically in transit after sendrequest")
	}
	// First transmission is dropped by the adversary.
	mustStep(Xmit("a2", "a1", KindRequest, 0))
	mustStep(faults.DropAction("a2", "a1"))
	if !transit("a2", "a1", KindRequest) {
		t.Fatal("a dropped packet must not remove the logical message")
	}
	// Retransmission gets through.
	mustStep(Xmit("a2", "a1", KindRequest, 0))
	mustStep(Dlvr("a2", "a1", KindRequest, 0))
	mustStep(ReceiveRequest("a2", "a1"))
	if transit("a2", "a1", KindRequest) {
		t.Fatal("message still in transit after delivery to the process")
	}
	ps, err := h.ProcStateOf(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ps.Requesting(slices.Index(tr.Neighbors(0), 1)) {
		t.Fatal("a1 did not record a2's request")
	}
	// The ack is duplicated; the second copy must be ignored.
	mustStep(Xmit("a1", "a2", KindAck, 0))
	mustStep(faults.DupAction("a1", "a2"))
	mustStep(Dlvr("a1", "a2", KindAck, 0))
	ls, err := h.SenderStateOf(s, "a2", "a1")
	if err != nil {
		t.Fatal(err)
	}
	if ls.Outstanding() || ls.Bit() != 1 || ls.Pending() != 0 {
		t.Fatalf("ack not processed: %s", ls.Key())
	}
	before := ls
	mustStep(Dlvr("a1", "a2", KindAck, 0)) // the duplicate
	ls, _ = h.SenderStateOf(s, "a2", "a1")
	if ls.Key() != before.Key() {
		t.Fatalf("duplicate ack changed the sender link: %s -> %s", before.Key(), ls.Key())
	}
	// a1 grants; the grant crosses a1→a2 and a2 grants u2.
	mustStep(SendGrant("a1", "a2"))
	if !transit("a1", "a2", KindGrant) {
		t.Fatal("grant must be logically in transit")
	}
	mustStep(Xmit("a1", "a2", KindGrant, 0))
	mustStep(Dlvr("a1", "a2", KindGrant, 0))
	mustStep(ReceiveGrant("a1", "a2"))
	ps, err = h.ProcStateOf(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ps.Holding() {
		t.Fatal("a2 did not receive the grant")
	}
	if len(ioa.Successors(a, s, SendGrant("a2", "u2"))) == 0 {
		t.Fatal("a2 must be able to grant u2")
	}
}

// TestReceiverReacksLostAck: if an ack is lost, the sender
// retransmits and the receiver — although it already accepted the
// message — re-answers with a fresh ack instead of delivering twice.
func TestReceiverReacksLostAck(t *testing.T) {
	_, h := hardenedFig(t, faults.Injection{Adversary: []faults.Class{faults.Drop}})
	a := h.Composite
	s := a.Start()[0]
	mustStep := func(act ioa.Action) {
		t.Helper()
		next, ok := ioa.StepTo(a, s, act, 0)
		if !ok {
			t.Fatalf("action %s not enabled from %s", act, s.Key())
		}
		s = next
	}
	mustStep(ReceiveRequest("u2", "a2"))
	mustStep(SendRequest("a2", "a1"))
	mustStep(Xmit("a2", "a1", KindRequest, 0))
	mustStep(Dlvr("a2", "a1", KindRequest, 0))
	// Ack sent but lost.
	mustStep(Xmit("a1", "a2", KindAck, 0))
	mustStep(faults.DropAction("a1", "a2"))
	// Sender retransmits; the receiver sees a duplicate.
	mustStep(Xmit("a2", "a1", KindRequest, 0))
	mustStep(Dlvr("a2", "a1", KindRequest, 0))
	lr, err := h.ReceiverStateOf(s, "a2", "a1")
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Deliver()) != 1 {
		t.Fatalf("duplicate data packet must not be delivered twice: %s", lr.Key())
	}
	if lr.AckDue() != 0 {
		t.Fatalf("receiver must owe a fresh ack: %s", lr.Key())
	}
	// The re-ack goes through this time and completes the handshake.
	mustStep(Xmit("a1", "a2", KindAck, 0))
	mustStep(Dlvr("a1", "a2", KindAck, 0))
	ls, err := h.SenderStateOf(s, "a2", "a1")
	if err != nil {
		t.Fatal(err)
	}
	if ls.Outstanding() {
		t.Fatalf("handshake incomplete: %s", ls.Key())
	}
}

// TestChannelFIFOAcrossKinds: h₂ requires each channel to be FIFO
// across message kinds, not merely per kind (a request forwarded
// right after a grant on the same channel must arrive second). The
// single per-channel alternating-bit instance serializes them: the
// request cannot even be transmitted until the grant is acknowledged.
func TestChannelFIFOAcrossKinds(t *testing.T) {
	_, h := hardenedFig(t, faults.Injection{})
	a := h.Composite
	s := a.Start()[0]
	mustStep := func(act ioa.Action) {
		t.Helper()
		next, ok := ioa.StepTo(a, s, act, 0)
		if !ok {
			t.Fatalf("action %s not enabled from %s", act, s.Key())
		}
		s = next
	}
	// a2 requests the resource for u2; a1 grants toward a2, and
	// before the grant is even transmitted u1's request makes a1
	// forward a request on the same channel.
	mustStep(ReceiveRequest("u2", "a2"))
	mustStep(SendRequest("a2", "a1"))
	mustStep(Xmit("a2", "a1", KindRequest, 0))
	mustStep(Dlvr("a2", "a1", KindRequest, 0))
	mustStep(ReceiveRequest("a2", "a1"))
	mustStep(Xmit("a1", "a2", KindAck, 0))
	mustStep(Dlvr("a1", "a2", KindAck, 0))
	mustStep(SendGrant("a1", "a2"))
	mustStep(ReceiveRequest("u1", "a1"))
	mustStep(SendRequest("a1", "a2"))
	ls, err := h.SenderStateOf(s, "a1", "a2")
	if err != nil {
		t.Fatal(err)
	}
	if q := ls.Queue(); len(q) != 2 || q[0] != KindGrant || q[1] != KindRequest {
		t.Fatalf("sender must queue grant before request: %s", ls.Key())
	}
	// The request is not transmittable while the grant is unacked.
	if _, ok := ioa.StepTo(a, s, Xmit("a1", "a2", KindRequest, 0), 0); ok {
		t.Fatal("request transmitted ahead of the unacknowledged grant")
	}
	if _, ok := ioa.StepTo(a, s, Xmit("a1", "a2", KindRequest, 1), 0); ok {
		t.Fatal("request transmitted ahead of the unacknowledged grant")
	}
	// Complete the grant handshake; only then does the request move.
	mustStep(Xmit("a1", "a2", KindGrant, 0))
	mustStep(Dlvr("a1", "a2", KindGrant, 0))
	mustStep(Xmit("a2", "a1", KindAck, 0))
	mustStep(Dlvr("a2", "a1", KindAck, 0))
	mustStep(Xmit("a1", "a2", KindRequest, 1))
	mustStep(Dlvr("a1", "a2", KindRequest, 1))
	lr, err := h.ReceiverStateOf(s, "a1", "a2")
	if err != nil {
		t.Fatal(err)
	}
	// Delivery order at the process interface is grant, then request.
	if q := lr.Deliver(); len(q) != 2 || q[0] != KindGrant || q[1] != KindRequest {
		t.Fatalf("receiver must deliver grant before request: %s", lr.Key())
	}
	if _, ok := ioa.StepTo(a, s, ReceiveRequest("a1", "a2"), 0); ok {
		t.Fatal("request delivered to the process ahead of the grant")
	}
	mustStep(ReceiveGrant("a1", "a2"))
	mustStep(ReceiveRequest("a1", "a2"))
}
