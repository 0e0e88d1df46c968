// Package dist implements the distributed arbiter of §3.3: one
// automaton A_a per arbiter process (Figure 3.5), the asynchronous
// message-system automaton M (Figure 3.6) — the fault-free network of
// package faults over the arbiter-to-arbiter channels —, their
// composition A₃ with internal communication hidden, the execution
// modules E_a, E_M, E₃, and the renaming f₂ onto the action names of
// A₂ over the buffer-augmented graph 𝒢. The retry-hardened A₃ʳ
// (retry.go) is assembled by the same function as A₃, over
// alternating-bit links and a packet network in place of M.
package dist

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/ioa"
	"repro/internal/proof"
)

// Message kinds carried by M.
const (
	KindRequest = "request"
	KindGrant   = "grant"
)

// ProcState is the state of one arbiter process automaton A_a
// (§3.3.1): the set of neighbors it has received requests from, the
// neighbor it last forwarded the resource to, and the holding /
// requested flags.
type ProcState struct {
	// requesting[i] reports whether neighbor i (in the process's fixed
	// neighbor order) has an unserved request.
	requesting []bool
	// lastForward is the index of the neighbor the resource was last
	// forwarded to (or arrived from).
	lastForward int
	holding     bool
	requested   bool
	key         string
}

var _ ioa.State = (*ProcState)(nil)

// NewProcState builds a process state.
func NewProcState(requesting []bool, lastForward int, holding, requested bool) *ProcState {
	return newProcState(append([]bool(nil), requesting...), lastForward, holding, requested)
}

// newProcState is NewProcState taking ownership of requesting; states
// are immutable, so a successor that keeps the flags shares them.
func newProcState(requesting []bool, lastForward int, holding, requested bool) *ProcState {
	s := &ProcState{
		requesting:  requesting,
		lastForward: lastForward,
		holding:     holding,
		requested:   requested,
	}
	var b strings.Builder
	b.WriteString("rq=")
	for _, r := range s.requesting {
		if r {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	fmt.Fprintf(&b, " lf=%d h=%t r=%t", lastForward, holding, requested)
	s.key = b.String()
	return s
}

// Key implements ioa.State.
func (s *ProcState) Key() string { return s.key }

// Requesting reports whether neighbor index i has a pending request.
func (s *ProcState) Requesting(i int) bool { return s.requesting[i] }

// LastForward returns the last-forward neighbor index.
func (s *ProcState) LastForward() int { return s.lastForward }

// Holding reports whether the process holds the resource.
func (s *ProcState) Holding() bool { return s.holding }

// Requested reports whether the process has forwarded a request since
// last holding the resource.
func (s *ProcState) Requested() bool { return s.requested }

// withRequesting returns s with neighbor i's request flag set to v: s
// itself when it already is, else a new state over one copy of the
// flags.
func (s *ProcState) withRequesting(i int, v bool) *ProcState {
	if s.requesting[i] == v {
		return s
	}
	rq := append([]bool(nil), s.requesting...)
	rq[i] = v
	return newProcState(rq, s.lastForward, s.holding, s.requested)
}

// Action constructors (names carry sender and receiver node names).

// ReceiveRequest names receiverequest(v,a): a request from v arrives
// at a.
func ReceiveRequest(v, a string) ioa.Action { return ioa.Act("receiverequest", v, a) }

// ReceiveGrant names receivegrant(v,a): the resource from v arrives at a.
func ReceiveGrant(v, a string) ioa.Action { return ioa.Act("receivegrant", v, a) }

// SendRequest names sendrequest(a,v): a forwards a request to v.
func SendRequest(a, v string) ioa.Action { return ioa.Act("sendrequest", a, v) }

// SendGrant names sendgrant(a,v): a forwards the resource to v.
func SendGrant(a, v string) ioa.Action { return ioa.Act("sendgrant", a, v) }

// NewProcess builds the automaton A_a for arbiter process a of tree t
// (Figure 3.5). initialHolder designates the process initially holding
// the resource; every other process's lastForward points toward it.
// A_a is primitive: all its locally-controlled actions form one class
// named after the process.
func NewProcess(t *graph.Tree, a, initialHolder int) (*ioa.Prog, error) {
	if t.Node(a).Kind != graph.Arbiter {
		return nil, fmt.Errorf("dist: process %s is not an arbiter node", t.Node(a).Name)
	}
	if t.Node(initialHolder).Kind != graph.Arbiter {
		return nil, fmt.Errorf("dist: initial holder %s is not an arbiter node", t.Node(initialHolder).Name)
	}
	nb := t.Neighbors(a)
	aName := t.Node(a).Name
	class := aName

	holding := a == initialHolder
	lastForward := 0 // for the initial holder: an arbitrary neighbor
	if !holding {
		// The neighbor on the path toward the holder.
		for i, v := range nb {
			if t.PointsToward(a, v, initialHolder) {
				lastForward = i
				break
			}
		}
	}
	d := ioa.NewDef("A_" + aName)
	d.Start(NewProcState(make([]bool, len(nb)), lastForward, holding, false))

	for i, v := range nb {
		i, v := i, v
		vName := t.Node(v).Name

		d.Input(ReceiveRequest(vName, aName), func(st ioa.State) ioa.State {
			return st.(*ProcState).withRequesting(i, true)
		})
		d.Input(ReceiveGrant(vName, aName), func(st ioa.State) ioa.State {
			s := st.(*ProcState)
			if !s.holding && s.lastForward == i {
				return newProcState(s.requesting, s.lastForward, true, false)
			}
			return s
		})
		d.Output(SendRequest(aName, vName), class,
			func(st ioa.State) bool {
				s := st.(*ProcState)
				return anyRequesting(s) && !s.requested && !s.holding && s.lastForward == i
			},
			func(st ioa.State) ioa.State {
				s := st.(*ProcState)
				return newProcState(s.requesting, s.lastForward, s.holding, true)
			})
		d.Output(SendGrant(aName, vName), class,
			func(st ioa.State) bool {
				s := st.(*ProcState)
				if !s.requesting[i] || !s.holding {
					return false
				}
				// No requester properly between lastForward and v in
				// the cyclic neighbor order.
				for k := 1; k < len(nb); k++ {
					y := (s.lastForward + k) % len(nb)
					if y == i {
						break
					}
					if s.requesting[y] {
						return false
					}
				}
				return true
			},
			func(st ioa.State) ioa.State {
				s := st.(*ProcState)
				rq := append([]bool(nil), s.requesting...)
				rq[i] = false
				return newProcState(rq, i, false, s.requested)
			})
	}
	return d.Build()
}

func anyRequesting(s *ProcState) bool {
	for _, r := range s.requesting {
		if r {
			return true
		}
	}
	return false
}

// channels lists the directed arbiter-to-arbiter channels of t as
// faults.Link descriptors in component order (arbiters ascending, each
// one's neighbors in order), msgs naming what each carries: the one
// walk behind Links, RetryLinks and the link pairs of A₃ʳ.
func channels(t *graph.Tree, msgs func(from, to string) []faults.Msg) []faults.Link {
	var links []faults.Link
	for _, a := range t.NodesOf(graph.Arbiter) {
		for _, v := range t.Neighbors(a) {
			if t.Node(v).Kind != graph.Arbiter {
				continue
			}
			from, to := t.Node(a).Name, t.Node(v).Name
			links = append(links, faults.Link{From: from, To: to, Msgs: msgs(from, to)})
		}
	}
	return links
}

// Links enumerates the directed arbiter-to-arbiter channels of t as
// faults.Link descriptors, each carrying the request and grant
// message kinds with the send/receive action names of Figure 3.6.
func Links(t *graph.Tree) []faults.Link {
	return channels(t, func(from, to string) []faults.Msg {
		var msgs []faults.Msg
		for _, k := range dataKinds {
			msgs = append(msgs, faults.Msg{Kind: k, Send: sendActionFor(from, to, k), Recv: recvActionFor(from, to, k)})
		}
		return msgs
	})
}

// NewMessageSystem builds the automaton M for tree t: the fault-free
// network of package faults over Links(t). It accepts
// sendrequest/sendgrant between adjacent arbiter processes and
// delivers each channel's messages in order; its partition has one
// class ch(a,a') per directed channel, matching the per-direction
// buffer classes of A₂ over 𝒢.
//
// Figure 3.6 presents the undelivered messages as an unordered set,
// but the possibilities mapping h₂ of §3.3.6 is sound only if a
// channel never delivers a request ahead of an earlier grant on the
// same channel: a process that has just granted the resource toward a′
// may immediately forward a fresh request after it, and delivering
// that request first yields a state whose h₂-image requires an A₂ step
// request(b,a′) that is disabled (the buffer is the root, so the edge
// does not point toward the root — the case Lemma 46's proof silently
// excludes). The paper's own implementability argument for E_M
// (Lemma 44) constructs M from FIFO buffers, so M is FIFO per channel;
// the faults.Reorder adversary gives back the literal Figure 3.6
// freedom, and the mapping package's tests exhibit the counterexample
// over it.
func NewMessageSystem(t *graph.Tree) (*ioa.Prog, error) {
	return faults.NewNetwork("M", Links(t), faults.Injection{})
}

// NewFaultyMessageSystem builds the message system M for tree t with
// the given fault injection (see faults.Injection). With the zero
// injection it is NewMessageSystem under another name.
func NewFaultyMessageSystem(t *graph.Tree, inj faults.Injection) (*ioa.Prog, error) {
	name := "M-faulty"
	if inj.Sched != nil {
		name = fmt.Sprintf("M-faulty[%s seed=%d]", inj.Sched.Profile, inj.Sched.Seed)
	}
	return faults.NewNetwork(name, Links(t), inj)
}

// Assembly is what A₃ and A₃ʳ share: the processes of Figure 3.5
// over one tree, composed before their channel automata, with every
// output but the user-facing sendgrant(a,u) hidden.
type Assembly struct {
	// Tree is the process graph G.
	Tree *graph.Tree
	// Procs maps arbiter node ID to its automaton.
	Procs map[int]*ioa.Prog
	// Composite is the raw composition (before hiding); its component
	// order is arbiter nodes ascending, then the channel automata.
	Composite *ioa.Composite
	// Order lists the arbiter node IDs in component order.
	Order []int
	// A3 is the hidden composition.
	A3 ioa.Automaton
}

// A Transit answers, at one state of a level-3 arbiter, whether a
// message of the given kind is logically in transit on the channel
// (from,to) between two adjacent arbiter processes: what System and
// Hardened answer differently, and all the possibilities mapping h₂
// reads of their channels.
type Transit interface {
	Has(from, to, kind string) bool
}

// Base returns the shared assembly, which System and Hardened both
// embed.
func (asm *Assembly) Base() *Assembly { return asm }

// assemble composes the processes of tree t, in node order, before the
// channel automata chans, with every output except sendgrant(a,u)
// hidden.
func assemble(name string, t *graph.Tree, initialHolder int, chans []ioa.Automaton) (Assembly, error) {
	asm := Assembly{Tree: t, Procs: make(map[int]*ioa.Prog)}
	var comps []ioa.Automaton
	for _, a := range t.NodesOf(graph.Arbiter) {
		p, err := NewProcess(t, a, initialHolder)
		if err != nil {
			return asm, err
		}
		asm.Procs[a] = p
		asm.Order = append(asm.Order, a)
		comps = append(comps, p)
	}
	composite, err := ioa.Compose(name, append(comps, chans...)...)
	if err != nil {
		return asm, err
	}
	asm.Composite = composite
	keep := make(ioa.Set)
	for _, u := range t.NodesOf(graph.User) {
		a := t.UserAttachment(u)
		keep.Add(SendGrant(t.Node(a).Name, t.Node(u).Name))
	}
	asm.A3 = ioa.HideOutputsExcept(composite, keep)
	return asm, nil
}

// component returns part i of the composite state st.
func component[T ioa.State](st ioa.State, i int) (T, error) {
	var part T
	ts, ok := st.(*ioa.TupleState)
	if !ok {
		return part, fmt.Errorf("dist: not a composite state")
	}
	if i >= ts.Len() {
		return part, fmt.Errorf("dist: composite state has no component %d", i)
	}
	if part, ok = ts.At(i).(T); !ok {
		return part, fmt.Errorf("dist: component %d is not a %T", i, part)
	}
	return part, nil
}

// ProcStateOf extracts process a's state from a composite state.
func (asm *Assembly) ProcStateOf(st ioa.State, a int) (*ProcState, error) {
	i := slices.Index(asm.Order, a)
	if i < 0 {
		return nil, fmt.Errorf("dist: node %d is not a process", a)
	}
	return component[*ProcState](st, i)
}

// System bundles the distributed arbiter: the per-process automata,
// the message system, and their composition A₃ (§3.3.3) with all
// outputs except sendgrant(a,u) hidden. Its components are the
// processes, then M.
type System struct {
	Assembly
	// Msg is the message-system automaton.
	Msg *ioa.Prog
}

// New assembles the distributed arbiter over tree t with the given
// initial holder process (FIFO channels; see NewMessageSystem).
func New(t *graph.Tree, initialHolder int) (*System, error) {
	m, err := NewMessageSystem(t)
	if err != nil {
		return nil, err
	}
	return newSystem(t, initialHolder, m)
}

// NewWithFaults assembles the arbiter over a fault-injected message
// system (see faults.Injection): the unhardened A₃ running on faulty
// channels. Used by the chaos harness to show which correctness
// properties the reliable-channel proof actually depends on.
func NewWithFaults(t *graph.Tree, initialHolder int, inj faults.Injection) (*System, error) {
	m, err := NewFaultyMessageSystem(t, inj)
	if err != nil {
		return nil, err
	}
	return newSystem(t, initialHolder, m)
}

func newSystem(t *graph.Tree, initialHolder int, m *ioa.Prog) (*System, error) {
	sys := &System{Msg: m}
	var err error
	if sys.Assembly, err = assemble("A3", t, initialHolder, []ioa.Automaton{m}); err != nil {
		return nil, err
	}
	return sys, nil
}

// MsgStateOf extracts the message-system state from a composite state.
func (s *System) MsgStateOf(st ioa.State) (*faults.NetState, error) {
	return component[*faults.NetState](st, len(s.Order))
}

// InTransit reads the messages in transit at st off M: a message is in
// transit iff M holds it undelivered.
func (s *System) InTransit(st ioa.State) (Transit, error) {
	ms, err := s.MsgStateOf(st)
	if err != nil {
		return nil, err
	}
	return ms, nil
}

// FwdReq3 is the condition FwdReq_a(v) of §3.3.4 on process a's own
// state: having received a request while not holding the resource and
// not having forwarded one, it either forwards a request toward the
// resource or receives the resource.
func FwdReq3(t *graph.Tree, a, v int) *proof.LeadsTo {
	vi := slices.Index(t.Neighbors(a), v)
	aName, vName := t.Node(a).Name, t.Node(v).Name
	return &proof.LeadsTo{
		Name: fmt.Sprintf("FwdReq3(%s,%s)", aName, vName),
		S: func(st ioa.State) bool {
			ps, ok := st.(*ProcState)
			return ok && anyRequesting(ps) && !ps.requested && !ps.holding && ps.lastForward == vi
		},
		T: func(act ioa.Action) bool {
			return act == ReceiveGrant(vName, aName) || act == SendRequest(aName, vName)
		},
	}
}

// FwdGr3 is the condition FwdGr_a(v,w) of §3.3.4 on process a's own
// state: holding the resource with v requesting (and the resource last
// forwarded to w), a eventually grants into the (w,v] window.
func FwdGr3(t *graph.Tree, a, v, w int) *proof.LeadsTo {
	nb := t.Neighbors(a)
	vi, wi := slices.Index(nb, v), slices.Index(nb, w)
	aName := t.Node(a).Name
	window := make(map[ioa.Action]bool)
	for k := 1; k <= len(nb); k++ {
		y := (wi + k) % len(nb)
		window[SendGrant(aName, t.Node(nb[y]).Name)] = true
		if y == vi {
			break
		}
	}
	return &proof.LeadsTo{
		Name: fmt.Sprintf("FwdGr3(%s,%s,%s)", aName, t.Node(v).Name, t.Node(w).Name),
		S: func(st ioa.State) bool {
			ps, ok := st.(*ProcState)
			return ok && ps.requesting[vi] && ps.holding && ps.lastForward == wi
		},
		T: func(act ioa.Action) bool { return window[act] },
	}
}

// Ca returns C_a of §3.3.4, the conjunction of FwdReq3(a,v) and
// FwdGr3(a,v,w) over a's neighbours, on A_a's own state: the
// conditions Lemma 42 says every fair execution of A_a satisfies.
func Ca(t *graph.Tree, a int) []*proof.LeadsTo {
	var out []*proof.LeadsTo
	for _, v := range t.Neighbors(a) {
		out = append(out, FwdReq3(t, a, v))
		for _, w := range t.Neighbors(a) {
			out = append(out, FwdGr3(t, a, v, w))
		}
	}
	return out
}

// DelReq3 is DelReq_M(a,a') of §3.3.4: an undelivered request message
// is eventually delivered.
func (s *System) DelReq3(a, aPrime int) *proof.LeadsTo {
	from, to := s.Tree.Node(a).Name, s.Tree.Node(aPrime).Name
	return &proof.LeadsTo{
		Name: fmt.Sprintf("DelReq3(%s,%s)", from, to),
		S: func(st ioa.State) bool {
			ms, err := s.MsgStateOf(st)
			return err == nil && ms.Has(from, to, KindRequest)
		},
		T: func(act ioa.Action) bool { return act == ReceiveRequest(from, to) },
	}
}

// DelGr3 is DelGr_M(a,a') of §3.3.4 for grant messages.
func (s *System) DelGr3(a, aPrime int) *proof.LeadsTo {
	from, to := s.Tree.Node(a).Name, s.Tree.Node(aPrime).Name
	return &proof.LeadsTo{
		Name: fmt.Sprintf("DelGr3(%s,%s)", from, to),
		S: func(st ioa.State) bool {
			ms, err := s.MsgStateOf(st)
			return err == nil && ms.Has(from, to, KindGrant)
		},
		T: func(act ioa.Action) bool { return act == ReceiveGrant(from, to) },
	}
}

// C3 returns the conjunction C₃ = ⋀C_a ∧ C_M of §3.3.6: the progress
// obligations of every process and every channel.
func (s *System) C3() []*proof.LeadsTo {
	var out []*proof.LeadsTo
	for i, a := range s.Order {
		for _, c := range Ca(s.Tree, a) {
			out = append(out, proof.OnComponent(i, c))
		}
	}
	for _, a := range s.Order {
		for _, v := range s.Tree.Neighbors(a) {
			if s.Tree.Node(v).Kind == graph.Arbiter {
				out = append(out, s.DelReq3(a, v), s.DelGr3(a, v))
			}
		}
	}
	return out
}

// E3 builds the execution module E₃: executions of A₃ satisfying C₃
// (§3.3.4, recharacterized globally by Lemma 47).
func (s *System) E3() *proof.CondModule {
	return &proof.CondModule{Name: "E3", Auto: s.A3, Goals: s.C3()}
}

// F2 builds the action mapping f₂ of §3.3.5, renaming A₃'s actions to
// those of A₂ over the buffer-augmented graph 𝒢 (aug must be
// graph.Augment of the system's tree; node IDs of original nodes
// coincide):
//
//	receiverequest(u,a)  ↦ request(u,a)      (user edges)
//	receivegrant(u,a)    ↦ grant(u,a)
//	sendrequest(a,u)     ↦ request(a,u)
//	sendgrant(a,u)       ↦ grant(a,u)
//	receiverequest(a',a) ↦ request(b(a,a'),a) (buffered edges)
//	receivegrant(a',a)   ↦ grant(b(a,a'),a)
//	sendrequest(a,a')    ↦ request(a,b(a,a'))
//	sendgrant(a,a')      ↦ grant(a,b(a,a'))
//
// A₃ʳ has the same external interface and takes the same pairs; its
// internal xmit/dlvr actions, and any fault actions, are left to
// rename to themselves.
func (asm *Assembly) F2(aug *graph.Tree) (*ioa.Mapping, error) {
	t := asm.Tree
	pairs := make(map[ioa.Action]ioa.Action)
	name := func(id int) string { return aug.Node(id).Name }
	for _, a := range asm.Order {
		for _, v := range t.Neighbors(a) {
			vName, aName := t.Node(v).Name, t.Node(a).Name
			if t.Node(v).Kind == graph.User {
				pairs[ReceiveRequest(vName, aName)] = ioa.Act("request", vName, aName)
				pairs[ReceiveGrant(vName, aName)] = ioa.Act("grant", vName, aName)
				pairs[SendRequest(aName, vName)] = ioa.Act("request", aName, vName)
				pairs[SendGrant(aName, vName)] = ioa.Act("grant", aName, vName)
				continue
			}
			b, err := aug.BufferBetween(a, v)
			if err != nil {
				return nil, err
			}
			pairs[ReceiveRequest(vName, aName)] = ioa.Act("request", name(b), aName)
			pairs[ReceiveGrant(vName, aName)] = ioa.Act("grant", name(b), aName)
			pairs[SendRequest(aName, vName)] = ioa.Act("request", aName, name(b))
			pairs[SendGrant(aName, vName)] = ioa.Act("grant", aName, name(b))
		}
	}
	return ioa.NewMapping(pairs)
}
