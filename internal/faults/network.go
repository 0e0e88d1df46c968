package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ioa"
	"repro/internal/obs"
)

// A Msg describes one message kind a channel can carry: the input
// action that enqueues it and the output action that delivers it.
type Msg struct {
	Kind string
	Send ioa.Action
	Recv ioa.Action
}

// A Link is one directed channel between named endpoints, carrying
// the listed message kinds. From/To appear in fault action names
// (drop(from,to), ...) and in the per-channel fairness class name
// ch(from,to).
type Link struct {
	From, To string
	Msgs     []Msg
}

// An Injection selects which faults a network automaton suffers.
// The zero Injection yields a reliable FIFO network.
type Injection struct {
	// Adversary lists fault classes added as internal actions per
	// channel: Drop adds drop(from,to) (lose the head), Duplicate
	// adds dup(from,to) (re-enqueue the head), Reorder/Delay add
	// reorder(from,to) (swap the first two entries). The scheduler
	// decides when they fire.
	Adversary []Class
	// Sched, when non-nil, applies seeded per-message faults at
	// enqueue time (see Schedule).
	Sched *Schedule
	// Obs, when non-nil, counts adversary fault actions as their
	// effects execute and records them as instant trace events (with
	// the same computed-once-under-memo caveat as Schedule.Obs;
	// scheduled faults are counted via Sched.Obs).
	Obs *obs.Obs
}

// DropAction names the adversary action that loses the head of
// channel (from,to).
func DropAction(from, to string) ioa.Action { return ioa.Act("drop", from, to) }

// DupAction names the adversary action that duplicates the head of
// channel (from,to).
func DupAction(from, to string) ioa.Action { return ioa.Act("dup", from, to) }

// ReorderAction names the adversary action that swaps the first two
// messages of channel (from,to).
func ReorderAction(from, to string) ioa.Action { return ioa.Act("reorder", from, to) }

// entry is one in-flight message: its kind plus the remaining
// overtake budget (scheduled Delay faults only).
type entry struct {
	kind  string
	slack int
}

// netChan is one directed channel's state: the queue of in-flight
// entries and the count of messages ever offered to the channel (the
// per-channel sequence number feeding the Schedule; stays 0 when no
// schedule is attached, so fault-free networks have a finite state
// space).
type netChan struct {
	q    []entry
	sent uint64
}

// NetState is the state of a network automaton built by NewNetwork:
// one FIFO-with-faults queue per directed channel. Under the zero
// Injection it is the state of the arbiter's message system M, whose
// refinement mapping and delivery conditions read it through Has /
// HeadIs / Len.
type NetState struct {
	chans map[string]netChan
	key   string
}

var _ ioa.State = (*NetState)(nil)

// ChanKey canonicalizes a directed channel name: "from>to", as it
// appears in state keys and fault-schedule decisions.
func ChanKey(from, to string) string { return from + ">" + to }

func newNetState(chans map[string]netChan) *NetState {
	s := &NetState{chans: make(map[string]netChan, len(chans))}
	keys := make([]string, 0, len(chans))
	for ch, c := range chans {
		if len(c.q) == 0 && c.sent == 0 {
			continue
		}
		s.chans[ch] = netChan{q: append([]entry(nil), c.q...), sent: c.sent}
		keys = append(keys, ch)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("{")
	for _, ch := range keys {
		c := s.chans[ch]
		b.WriteString(ch)
		if c.sent > 0 {
			b.WriteByte('#')
			b.WriteString(strconv.FormatUint(c.sent, 10))
		}
		b.WriteString(":[")
		for i, e := range c.q {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(e.kind)
			if e.slack > 0 {
				b.WriteByte('~')
				b.WriteString(strconv.Itoa(e.slack))
			}
		}
		b.WriteString("] ")
	}
	b.WriteString("}")
	s.key = b.String()
	return s
}

// EmptyNetState returns the state with no in-flight messages.
func EmptyNetState() *NetState { return newNetState(nil) }

// Key implements ioa.State.
func (s *NetState) Key() string { return s.key }

// Has reports whether a message of the given kind is in flight
// anywhere on channel (from,to).
func (s *NetState) Has(from, to, kind string) bool {
	for _, e := range s.chans[ChanKey(from, to)].q {
		if e.kind == kind {
			return true
		}
	}
	return false
}

// HeadIs reports whether the channel's next deliverable message has
// the given kind.
func (s *NetState) HeadIs(from, to, kind string) bool {
	q := s.chans[ChanKey(from, to)].q
	return len(q) > 0 && q[0].kind == kind
}

// Len returns the total number of in-flight messages.
func (s *NetState) Len() int {
	n := 0
	for _, c := range s.chans {
		n += len(c.q)
	}
	return n
}

// Queue returns the kinds in flight on channel (from,to), in
// delivery order.
func (s *NetState) Queue(from, to string) []string {
	q := s.chans[ChanKey(from, to)].q
	out := make([]string, len(q))
	for i, e := range q {
		out[i] = e.kind
	}
	return out
}

// Sent returns how many messages have ever been offered to channel
// (from,to) (nonzero only under a scheduled injection).
func (s *NetState) Sent(from, to string) uint64 {
	return s.chans[ChanKey(from, to)].sent
}

// clone copies the channel map with channel ch's queue made writable.
func (s *NetState) clone(ch string) map[string]netChan {
	next := make(map[string]netChan, len(s.chans)+1)
	for k, c := range s.chans {
		next[k] = c
	}
	c := next[ch]
	c.q = append([]entry(nil), c.q...)
	next[ch] = c
	return next
}

// insertWithSlack appends e to q, letting it overtake earlier entries
// that still have slack budget (each overtake consumes one unit of
// the overtaken entry's budget). A message with slack b is therefore
// delivered at most b positions later than FIFO order — bounded
// delay.
func insertWithSlack(q []entry, e entry) []entry {
	pos := len(q)
	for pos > 0 && q[pos-1].slack > 0 {
		q[pos-1].slack--
		pos--
	}
	q = append(q, entry{})
	copy(q[pos+1:], q[pos:])
	q[pos] = e
	return q
}

// offer enqueues a message, applying any scheduled faults: the
// message may be dropped (never enqueued), duplicated (enqueued
// twice, adjacent), or given an overtake budget (bounded delay). The
// per-channel sequence number advances only when a schedule is
// attached.
func (s *NetState) offer(from, to, kind string, sched *Schedule) *NetState {
	ch := ChanKey(from, to)
	next := s.clone(ch)
	c := next[ch]
	if sched != nil {
		seq := c.sent
		c.sent++
		o := sched.Obs
		if o != nil {
			o.Faults.Sent.AddShard(int(seq), 1)
		}
		if lost, opens := sched.CrashesMessage(ch, seq); lost {
			if o != nil {
				if opens {
					o.Faults.Crash.AddShard(int(seq), 1)
				}
				o.Tracer.Instant(0, "faults", "crash-window", map[string]any{"channel": ch, "seq": seq, "opens": opens})
			}
			next[ch] = c
			return newNetState(next)
		}
		if sched.DropsMessage(ch, seq) {
			if o != nil {
				o.Faults.Drop.AddShard(int(seq), 1)
				o.Tracer.Instant(0, "faults", "drop", map[string]any{"channel": ch, "seq": seq})
			}
			next[ch] = c
			return newNetState(next)
		}
		slack := sched.SlackOf(ch, seq)
		if o != nil && slack > 0 {
			o.Faults.Delay.AddShard(int(seq), 1)
			o.Tracer.Instant(0, "faults", "delay", map[string]any{"channel": ch, "seq": seq, "slack": slack})
		}
		c.q = insertWithSlack(c.q, entry{kind: kind, slack: slack})
		if sched.DuplicatesMessage(ch, seq) {
			if o != nil {
				o.Faults.Dup.AddShard(int(seq), 1)
				o.Tracer.Instant(0, "faults", "dup", map[string]any{"channel": ch, "seq": seq})
			}
			c.q = insertWithSlack(c.q, entry{kind: kind})
		}
	} else {
		c.q = append(c.q, entry{kind: kind})
	}
	next[ch] = c
	return newNetState(next)
}

// pop removes the head of channel (from,to).
func (s *NetState) pop(from, to string) *NetState {
	ch := ChanKey(from, to)
	next := s.clone(ch)
	c := next[ch]
	c.q = c.q[1:]
	next[ch] = c
	return newNetState(next)
}

// dupHead re-enqueues the head of channel (from,to) right behind
// itself.
func (s *NetState) dupHead(from, to string) *NetState {
	ch := ChanKey(from, to)
	next := s.clone(ch)
	c := next[ch]
	c.q = append(c.q, entry{})
	copy(c.q[2:], c.q[1:])
	c.q[1] = entry{kind: c.q[0].kind}
	next[ch] = c
	return newNetState(next)
}

// swapHead exchanges the first two entries of channel (from,to).
func (s *NetState) swapHead(from, to string) *NetState {
	ch := ChanKey(from, to)
	next := s.clone(ch)
	c := next[ch]
	c.q[0], c.q[1] = c.q[1], c.q[0]
	next[ch] = c
	return newNetState(next)
}

// NewNetwork builds a network automaton carrying the given links
// under the given fault injection. With the zero Injection the
// result is a reliable per-channel-FIFO message system (the arbiter's
// M over its links); adversary classes add internal fault actions (in
// the channel's own fairness class, so fair scheduling never forces
// them), and a schedule applies seeded faults at enqueue time.
//
// The automaton's fairness partition has one class ch(from,to) per
// link, matching the per-direction buffer classes of the arbiter's
// A₂ over the augmented graph.
func NewNetwork(name string, links []Link, inj Injection) (*ioa.Prog, error) {
	adv, err := sortedClasses(inj.Adversary)
	if err != nil {
		return nil, err
	}
	if inj.Sched != nil {
		if err := inj.Sched.Profile.validate(); err != nil {
			return nil, err
		}
	}
	d := ioa.NewDef(name)
	d.Start(EmptyNetState())
	for _, l := range links {
		if l.From == "" || l.To == "" {
			return nil, fmt.Errorf("faults: link with empty endpoint name")
		}
		if len(l.Msgs) == 0 {
			return nil, fmt.Errorf("faults: link %s has no message kinds", ChanKey(l.From, l.To))
		}
		from, to := l.From, l.To
		class := "ch(" + from + "," + to + ")"
		for _, m := range l.Msgs {
			kind := m.Kind
			d.Input(m.Send, func(st ioa.State) ioa.State {
				return st.(*NetState).offer(from, to, kind, inj.Sched)
			})
			d.Output(m.Recv, class,
				func(st ioa.State) bool { return st.(*NetState).HeadIs(from, to, kind) },
				func(st ioa.State) ioa.State { return st.(*NetState).pop(from, to) })
		}
		// advNote counts an adversary fault effect as it executes.
		advNote := func(o *obs.Obs, counter *obs.Counter, name string) {
			counter.Add(1)
			o.Tracer.Instant(0, "faults", name, map[string]any{"channel": ChanKey(from, to)})
		}
		for _, c := range adv {
			switch c {
			case Drop:
				d.Internal(DropAction(from, to), class,
					func(st ioa.State) bool { return len(st.(*NetState).chans[ChanKey(from, to)].q) > 0 },
					func(st ioa.State) ioa.State {
						if o := inj.Obs; o != nil {
							advNote(o, o.Faults.Drop, "adv-drop")
						}
						return st.(*NetState).pop(from, to)
					})
			case Duplicate:
				d.Internal(DupAction(from, to), class,
					func(st ioa.State) bool { return len(st.(*NetState).chans[ChanKey(from, to)].q) > 0 },
					func(st ioa.State) ioa.State {
						if o := inj.Obs; o != nil {
							advNote(o, o.Faults.Dup, "adv-dup")
						}
						return st.(*NetState).dupHead(from, to)
					})
			case Reorder:
				d.Internal(ReorderAction(from, to), class,
					func(st ioa.State) bool { return len(st.(*NetState).chans[ChanKey(from, to)].q) > 1 },
					func(st ioa.State) ioa.State {
						if o := inj.Obs; o != nil {
							advNote(o, o.Faults.Reorder, "adv-reorder")
						}
						return st.(*NetState).swapHead(from, to)
					})
			}
		}
	}
	return d.Build()
}
