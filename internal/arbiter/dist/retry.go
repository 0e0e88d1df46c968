package dist

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/ioa"
)

// This file implements the retry-hardened arbiter A₃ʳ: the processes
// of Figure 3.5 unchanged, but every directed arbiter channel is
// driven through a pair of alternating-bit link automata — a sender
// link that retransmits until acknowledged and a receiver link that
// deduplicates and acknowledges — so that A₃ʳ tolerates message loss
// and duplication on the underlying network. The paper proves A₃
// correct only over the reliable FIFO automaton M (§3.3) and names
// fault tolerance as the open direction (Chapter 4); A₃ʳ closes that
// gap for the drop/duplicate fault classes, and the mapping package
// checks the same possibilities mapping h₂ over it along sampled fair
// executions, clause A4 read off the links (InTransit).
//
// Protocol, per directed channel (a,a') — one alternating-bit
// instance for the whole channel, carrying messages tagged with their
// kind ∈ {request, grant}:
//
//   - The sender link LS(a,a') queues the process's send actions in
//     order. It transmits the head message tagged with the current
//     bit, retransmitting freely (its xmit class stays enabled), and
//     pops the queue and flips the bit when the matching ack arrives.
//   - The receiver link LR(a,a') accepts a data packet exactly when
//     its bit matches the expected bit (duplicates and stale packets
//     are ignored), schedules an ack for every packet it sees (so
//     lost acks are re-answered on retransmission), and delivers
//     accepted messages to the process exactly once, in order.
//
// One protocol instance per channel — rather than one per (channel,
// kind) — is load-bearing: h₂ needs channels FIFO across kinds, not
// merely per kind. A process that has just granted toward a′ may
// immediately forward a fresh request on the same channel, and if the
// request's link could race ahead of the grant's, a′ would observe
// the request first — the very counterexample that breaks h₂ when M
// may reorder a channel (see NewMessageSystem). Lemma 44 implements M
// from per-channel FIFO buffers; A₃ʳ implements the same per-channel
// FIFO discipline over a lossy, duplicating packet network.
//
// Safety needs the network FIFO up to loss and duplication: with
// reordering a stale data packet can survive until the alternating
// bit cycles back and then be accepted as a fresh message — the
// mapping package scripts exactly that token-duplication scenario.
// Liveness needs the channels fair-lossy (drop rate < 1), so that
// infinitely many retransmissions get through.

// KindAck is the network message kind of acknowledgment packets; the
// ack for a data packet on channel (a,a') travels on the reverse
// channel (a',a).
const KindAck = "ack"

// Xmit names the packet injection xmit(from,to,kind,bit): the sender
// side hands a tagged packet to the network.
func Xmit(from, to, kind string, bit int) ioa.Action {
	return ioa.Act("xmit", from, to, kind, strconv.Itoa(bit))
}

// Dlvr names the packet delivery dlvr(from,to,kind,bit): the network
// hands a tagged packet to the receiver side.
func Dlvr(from, to, kind string, bit int) ioa.Action {
	return ioa.Act("dlvr", from, to, kind, strconv.Itoa(bit))
}

// packetKind is the network-level message kind for a tagged packet.
func packetKind(kind string, bit int) string { return kind + "/" + strconv.Itoa(bit) }

// SenderState is the state of a sender link LS(a,a').
type SenderState struct {
	queue       []string // kinds accepted from the process, in send order
	bit         int      // alternating bit of the current outgoing message
	outstanding bool     // the head message is in flight awaiting its ack
	key         string
}

var _ ioa.State = (*SenderState)(nil)

func newSenderState(queue []string, bit int, outstanding bool) *SenderState {
	return &SenderState{
		queue: queue, bit: bit, outstanding: outstanding,
		key: fmt.Sprintf("q=[%s] b=%d o=%t", strings.Join(queue, " "), bit, outstanding),
	}
}

// Key implements ioa.State.
func (s *SenderState) Key() string { return s.key }

// Queue returns the kinds accepted from the process and not yet
// acknowledged, in send order.
func (s *SenderState) Queue() []string { return append([]string(nil), s.queue...) }

// Pending counts queued messages.
func (s *SenderState) Pending() int { return len(s.queue) }

// Bit returns the current alternating bit.
func (s *SenderState) Bit() int { return s.bit }

// Outstanding reports whether the head message awaits its ack.
func (s *SenderState) Outstanding() bool { return s.outstanding }

// ReceiverState is the state of a receiver link LR(a,a').
type ReceiverState struct {
	expect  int      // bit of the next message to accept
	deliver []string // accepted kinds not yet handed to the process, in order
	ackDue  int      // bit to acknowledge, or -1 if none pending
	key     string
}

var _ ioa.State = (*ReceiverState)(nil)

func newReceiverState(expect int, deliver []string, ackDue int) *ReceiverState {
	return &ReceiverState{
		expect: expect, deliver: deliver, ackDue: ackDue,
		key: fmt.Sprintf("e=%d d=[%s] a=%d", expect, strings.Join(deliver, " "), ackDue),
	}
}

// Key implements ioa.State.
func (s *ReceiverState) Key() string { return s.key }

// Deliver returns the accepted kinds not yet delivered to the
// process, in order.
func (s *ReceiverState) Deliver() []string { return append([]string(nil), s.deliver...) }

// AckDue returns the bit awaiting acknowledgment, or -1.
func (s *ReceiverState) AckDue() int { return s.ackDue }

// sendActionFor returns the process-side send action feeding
// LS(from,to) with a kind-tagged message.
func sendActionFor(from, to, kind string) ioa.Action {
	if kind == KindRequest {
		return SendRequest(from, to)
	}
	return SendGrant(from, to)
}

// recvActionFor returns the process-side receive action emitted by
// LR(from,to) when the head of its delivery queue has the given kind.
func recvActionFor(from, to, kind string) ioa.Action {
	if kind == KindRequest {
		return ReceiveRequest(from, to)
	}
	return ReceiveGrant(from, to)
}

// dataKinds are the message kinds a channel's sender link accepts.
var dataKinds = []string{KindRequest, KindGrant}

// NewSenderLink builds the alternating-bit sender link LS(from,to).
// Its xmit actions form the fairness class retry(from,to), so a fair
// schedule retransmits an unacknowledged message forever.
func NewSenderLink(from, to string) (*ioa.Prog, error) {
	d := ioa.NewDef("LS(" + from + "," + to + ")")
	d.Start(newSenderState(nil, 0, false))
	class := "retry(" + from + "," + to + ")"
	for _, k := range dataKinds {
		k := k
		d.Input(sendActionFor(from, to, k), func(st ioa.State) ioa.State {
			s := st.(*SenderState)
			return newSenderState(append(s.Queue(), k), s.bit, s.outstanding)
		})
		for b := 0; b <= 1; b++ {
			b := b
			d.OutputND(Xmit(from, to, k, b), class, func(st ioa.State) []ioa.State {
				s := st.(*SenderState)
				if len(s.queue) == 0 || s.queue[0] != k || s.bit != b {
					return nil
				}
				if s.outstanding {
					return []ioa.State{s} // retransmission: a self-step
				}
				return []ioa.State{newSenderState(s.queue, s.bit, true)}
			})
		}
	}
	for b := 0; b <= 1; b++ {
		b := b
		d.Input(Dlvr(to, from, KindAck, b), func(st ioa.State) ioa.State {
			s := st.(*SenderState)
			if s.outstanding && s.bit == b {
				return newSenderState(s.Queue()[1:], 1-s.bit, false)
			}
			return s // stale or duplicate ack: ignored
		})
	}
	return d.Build()
}

// NewReceiverLink builds the alternating-bit receiver link
// LR(from,to): it dedups arriving packets by bit, acks every arrival
// (re-answering retransmissions, so a lost ack is repaired), and
// delivers accepted messages to the process exactly once, in channel
// order — requests and grants on one channel never overtake each
// other.
func NewReceiverLink(from, to string) (*ioa.Prog, error) {
	d := ioa.NewDef("LR(" + from + "," + to + ")")
	d.Start(newReceiverState(0, nil, -1))
	ackClass := "ack(" + from + "," + to + ")"
	dlvClass := "dlv(" + from + "," + to + ")"
	for _, k := range dataKinds {
		k := k
		for b := 0; b <= 1; b++ {
			b := b
			d.Input(Dlvr(from, to, k, b), func(st ioa.State) ioa.State {
				s := st.(*ReceiverState)
				if b == s.expect {
					return newReceiverState(1-b, append(s.Deliver(), k), b)
				}
				return newReceiverState(s.expect, s.deliver, b) // duplicate: re-ack only
			})
		}
		d.Output(recvActionFor(from, to, k), dlvClass,
			func(st ioa.State) bool {
				s := st.(*ReceiverState)
				return len(s.deliver) > 0 && s.deliver[0] == k
			},
			func(st ioa.State) ioa.State {
				s := st.(*ReceiverState)
				return newReceiverState(s.expect, s.Deliver()[1:], s.ackDue)
			})
	}
	for b := 0; b <= 1; b++ {
		b := b
		d.Output(Xmit(to, from, KindAck, b), ackClass,
			func(st ioa.State) bool { return st.(*ReceiverState).ackDue == b },
			func(st ioa.State) ioa.State {
				s := st.(*ReceiverState)
				return newReceiverState(s.expect, s.deliver, -1)
			})
	}
	return d.Build()
}

// RetryLinks enumerates the network channels of the hardened system:
// each directed arbiter channel carries tagged data packets for its
// own traffic plus tagged ack packets for the reverse direction's
// traffic.
func RetryLinks(t *graph.Tree) []faults.Link {
	return channels(t, func(from, to string) []faults.Msg {
		var msgs []faults.Msg
		for b := 0; b <= 1; b++ {
			for _, k := range []string{KindRequest, KindGrant, KindAck} {
				msgs = append(msgs, faults.Msg{Kind: packetKind(k, b), Send: Xmit(from, to, k, b), Recv: Dlvr(from, to, k, b)})
			}
		}
		return msgs
	})
}

// Hardened bundles the retry-hardened arbiter A₃ʳ: the per-process
// automata of Figure 3.5, alternating-bit sender/receiver links on
// every directed arbiter channel, and a (possibly fault-injected)
// packet network, composed with everything but the user-facing
// sendgrant(a,u) outputs hidden. Its components are the processes,
// then the sender/receiver link pair of each channel, then the
// network.
type Hardened struct {
	Assembly
	// Senders and Receivers map faults.ChanKey(from,to) to link
	// automata.
	Senders   map[string]*ioa.Prog
	Receivers map[string]*ioa.Prog
	// Net is the packet network automaton.
	Net *ioa.Prog
	// idx maps faults.ChanKey(from,to) to the position of LS(from,to)
	// among the components after the processes; LR(from,to) follows it.
	idx map[string]int
}

// NewHardened assembles A₃ʳ over tree t with the given initial holder
// and fault injection on the packet network. The zero Injection gives
// reliable channels; Drop/Duplicate injections (adversary or
// scheduled) are tolerated by the protocol, Reorder/Delay are not.
func NewHardened(t *graph.Tree, initialHolder int, inj faults.Injection) (*Hardened, error) {
	h := &Hardened{
		Senders:   make(map[string]*ioa.Prog),
		Receivers: make(map[string]*ioa.Prog),
		idx:       make(map[string]int),
	}
	links := RetryLinks(t)
	var chans []ioa.Automaton
	for _, l := range links {
		ls, err := NewSenderLink(l.From, l.To)
		if err != nil {
			return nil, err
		}
		lr, err := NewReceiverLink(l.From, l.To)
		if err != nil {
			return nil, err
		}
		key := faults.ChanKey(l.From, l.To)
		h.Senders[key], h.Receivers[key] = ls, lr
		h.idx[key] = len(chans)
		chans = append(chans, ls, lr)
	}
	net, err := faults.NewNetwork("N", links, inj)
	if err != nil {
		return nil, err
	}
	h.Net = net
	if h.Assembly, err = assemble("A3R", t, initialHolder, append(chans, net)); err != nil {
		return nil, err
	}
	return h, nil
}

// SenderStateOf extracts the LS(from,to) state.
func (h *Hardened) SenderStateOf(st ioa.State, from, to string) (*SenderState, error) {
	i, ok := h.idx[faults.ChanKey(from, to)]
	if !ok {
		return nil, fmt.Errorf("dist: no sender link %s", faults.ChanKey(from, to))
	}
	return component[*SenderState](st, len(h.Order)+i)
}

// ReceiverStateOf extracts the LR(from,to) state.
func (h *Hardened) ReceiverStateOf(st ioa.State, from, to string) (*ReceiverState, error) {
	i, ok := h.idx[faults.ChanKey(from, to)]
	if !ok {
		return nil, fmt.Errorf("dist: no receiver link %s", faults.ChanKey(from, to))
	}
	return component[*ReceiverState](st, len(h.Order)+i+1)
}

// InTransit reads the messages in transit at st off the link automata:
// the abstract in-transit predicate of h₂ over A₃ʳ. A (from,to,kind)
// message counts as logically in transit exactly when it sits in the
// sender link's queue and has not yet been accepted by the receiver
// (for the head message: the receiver still expects the sender's bit),
// or the receiver has accepted it but not yet delivered it to the
// process. Crucially this never consults the packet network's queues,
// so drops, duplicates, retransmissions, and stale deliveries all leave
// it unchanged — they map to the stuttering case of the mapping.
func (h *Hardened) InTransit(st ioa.State) (Transit, error) {
	lt := make(linkTransit, len(h.idx))
	for key, i := range h.idx {
		ls, err := component[*SenderState](st, len(h.Order)+i)
		if err != nil {
			return nil, err
		}
		lr, err := component[*ReceiverState](st, len(h.Order)+i+1)
		if err != nil {
			return nil, err
		}
		lt[key] = linkPair{ls, lr}
	}
	return lt, nil
}

// linkPair is one channel's sender and receiver link states.
type linkPair struct {
	ls *SenderState
	lr *ReceiverState
}

// linkTransit is A₃ʳ's Transit: the link pairs of one state, by
// faults.ChanKey(from,to).
type linkTransit map[string]linkPair

// Has implements Transit.
func (lt linkTransit) Has(from, to, kind string) bool {
	p, ok := lt[faults.ChanKey(from, to)]
	if !ok {
		return false
	}
	for i, k := range p.ls.queue {
		if k != kind {
			continue
		}
		if i > 0 {
			return true // queued behind the head: untransmitted
		}
		if !p.ls.outstanding || p.lr.expect == p.ls.bit {
			return true // head, not yet accepted by the receiver
		}
	}
	return slices.Contains(p.lr.deliver, kind) // accepted, awaiting process delivery
}
