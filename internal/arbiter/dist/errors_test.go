package dist

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/ioa"
	"repro/internal/testseed"
)

func TestConstructorErrors(t *testing.T) {
	tr, err := graph.Figure32()
	if err != nil {
		t.Fatal(err)
	}
	userID := tr.NodesOf(graph.User)[0]
	if _, err := NewProcess(tr, userID, 0); err == nil {
		t.Error("a user node is not a process")
	}
	if _, err := NewProcess(tr, 0, userID); err == nil {
		t.Error("a user node cannot be the initial holder")
	}
	if _, err := New(tr, userID); err == nil {
		t.Error("system with user holder must fail")
	}
}

func TestF2RequiresAugmentedGraph(t *testing.T) {
	tr, err := graph.Figure32()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Passing the unaugmented graph: no buffers to map onto.
	if _, err := sys.F2(tr); err == nil {
		t.Error("F2 over a graph without buffers must fail")
	}
}

func TestStateAccessorErrors(t *testing.T) {
	tr, err := graph.Figure32()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	bogus := sys.Procs[0].Start()[0] // not a tuple state
	if _, err := sys.ProcStateOf(bogus, 0); err == nil {
		t.Error("non-composite state must be rejected")
	}
	if _, err := sys.MsgStateOf(bogus); err == nil {
		t.Error("non-composite state must be rejected")
	}
	start := sys.Composite.Start()[0]
	if _, err := sys.ProcStateOf(start, tr.NodesOf(graph.User)[0]); err == nil {
		t.Error("user node has no process state")
	}
}

// Property: driven through its own send and receive actions, each
// channel of M is a queue — a send appends, only the head's receive is
// enabled and it removes the head, Len tracks — and the key is the
// model's, never carrying the '#' sequence counter or '~' slack mark
// of a scheduled network: that is what keeps A₃ finite and its
// encodings as they are.
func TestMessageSystemQueueLaw(t *testing.T) {
	tr, err := graph.Figure32()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMessageSystem(tr)
	if err != nil {
		t.Fatal(err)
	}
	send := map[string]ioa.Action{KindRequest: SendRequest("a1", "a2"), KindGrant: SendGrant("a1", "a2")}
	recv := map[string]ioa.Action{KindRequest: ReceiveRequest("a1", "a2"), KindGrant: ReceiveGrant("a1", "a2")}
	other := map[string]string{KindRequest: KindGrant, KindGrant: KindRequest}
	f := func(ops []uint8) bool {
		s := m.Start()[0]
		var model []string
		for _, op := range ops {
			kind := KindRequest
			if op%2 == 1 {
				kind = KindGrant
			}
			act := send[kind]
			if op%3 == 0 && len(model) > 0 {
				if _, ok := ioa.StepTo(m, s, recv[other[model[0]]], 0); ok {
					return false
				}
				act = recv[model[0]]
				model = model[1:]
			} else {
				model = append(model, kind)
			}
			next, ok := ioa.StepTo(m, s, act, 0)
			if !ok {
				return false
			}
			s = next
			want := "{}"
			if len(model) > 0 {
				want = "{a1>a2:[" + strings.Join(model, ",") + "] }"
			}
			ns := s.(*faults.NetState)
			if ns.Len() != len(model) || s.Key() != want || strings.ContainsAny(s.Key(), "#~") {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, testseed.Quick(t, 200)); err != nil {
		t.Error(err)
	}

	s := m.Start()[0]
	s, _ = ioa.StepTo(m, s, SendGrant("a1", "a2"), 0)
	s, _ = ioa.StepTo(m, s, SendRequest("a1", "a2"), 0)
	if got, want := s.Key(), "{a1>a2:[grant,request] }"; got != want {
		t.Errorf("key = %q, want %q", got, want)
	}
}
