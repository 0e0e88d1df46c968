package proof

// The possibilities-mapping kernel: what VerifyOpts,
// FairSatisfiesViaMappingOpts and TransferDownOpts run on.
//
// A check that needs B's reachable states explores B through the
// engine's sequential kernel (explore.Engine.Reach) and freezes the
// result behind a position index (posIndex: hash of the streamed
// encoding → position in the result, confirmed against the state
// stored there), so "is b reachable" and "which state is this
// successor of b" are probes that return a position, and no state is
// asked for its Key().
//
// A itself is walked once, by the engine's sequential kernel
// (explore.Engine.Visit), and checked in the walk's order: h.Map is
// called on each admitted state, on the calling goroutine, and
// resolved into the state's row of B positions (an image); condition
// 2 is then checked on each step, comparing positions. The engine
// walks A on a goroutine of its own, and a relay hands its
// admissions, steps and expansions over in batches, which the calling
// goroutine replays in emission order: the walk steps A while the
// checks step B. The steps come node by node in discovery order, then
// sorted action, then Next order, and each is checked against the
// possibilities in Map order, so the first failure is the one a
// sequential loop over Reach(A) finds. After it the walk runs to the
// end and checks nothing more: the engine's own errors (ErrLimit,
// cancellation, storage) take precedence, and Map is still called
// once per admitted state. A panic on either side reaches the caller,
// and the walk's goroutine never outlives the call (walk.relayed).

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/obs"
	"repro/internal/store"
)

// unreachable is the position of a state outside a Reach result: what a
// posIndex probe returns on a miss, and what a possibility outside
// Reach(B) resolves to in an image.
const unreachable = math.MaxUint32

// A posIndex is a frozen position index over one Reach result: an
// open-addressed table of (high half of the encoding's hash, position)
// slots at load ≤ ½, about 16 bytes a state. It deliberately is neither
// the engine's seen set kept alive nor a second store: both hold the
// encodings a second time beside the states (DESIGN.md, "Possibilities-
// mapping kernel"). It carries its own probe buffers, so one goroutine
// at a time may probe it.
type posIndex struct {
	states   []ioa.State
	slots    []uint64 // 0 = empty, else hash&^MaxUint32 | position+1
	mask     uint64
	enc, cmp []byte // find's encodings of the probed and the stored state
}

// reachIndexed explores x and freezes a position index over the result.
// Engine errors — ErrLimit, cancellation, storage — pass through.
func reachIndexed(opts explore.Options, x ioa.Automaton) (*posIndex, error) {
	states, err := explore.New(opts).Reach(context.Background(), x)
	if err != nil {
		return nil, err
	}
	if len(states) >= unreachable {
		return nil, fmt.Errorf("proof: %d reachable states of %s exceed the position index", len(states), x.Name())
	}
	size := 1
	for size < 2*len(states) {
		size <<= 1
	}
	idx := &posIndex{states: states, slots: make([]uint64, size), mask: uint64(size - 1)}
	for pos, s := range states {
		idx.enc = ioa.AppendState(idx.enc[:0], s)
		h := store.Hash(idx.enc)
		i := h & idx.mask
		for idx.slots[i] != 0 {
			i = (i + 1) & idx.mask
		}
		idx.slots[i] = h&^math.MaxUint32 | uint64(pos+1)
	}
	return idx, nil
}

// find returns the position of s in the indexed result, or unreachable.
// A slot whose hash half matches is confirmed by encoding the state
// stored at that position and comparing bytes.
func (x *posIndex) find(s ioa.State) uint32 {
	x.enc = ioa.AppendState(x.enc[:0], s)
	h := store.Hash(x.enc)
	for i := h & x.mask; ; i = (i + 1) & x.mask {
		slot := x.slots[i]
		if slot == 0 {
			return unreachable
		}
		if slot&^math.MaxUint32 != h&^math.MaxUint32 {
			continue
		}
		pos := uint32(slot) - 1
		x.cmp = ioa.AppendState(x.cmp[:0], x.states[pos])
		if bytes.Equal(x.enc, x.cmp) {
			return pos
		}
	}
}

// walkProgressStride is how many expanded states separate two
// heartbeats of a mapping walk.
const walkProgressStride = 8192

// A walk is one check's single pass over A: the Visitor calls the relay
// hands over are replayed into it, in the walk's order. Every
// admitted state a is handed, with h.Map(a), to state; with b set, its
// possibilities are also resolved into a row of positions in Reach(B)
// and condition 2 is checked on every step. The first failure is kept
// in fail, to be formatted once the walk has returned A's states.
type walk struct {
	h     *PossMapping
	state func(a ioa.State, poss []ioa.State) error // nil: no per-state check
	b     *posIndex                                 // nil: no rows, no condition 2
	o     *obs.Obs                                  // progress and the proof metrics, under VerifyOpts

	// Actions by number: A's names, B stepped by number, and toB
	// carrying each of A's numbers to B's, -1 outside acts(B).
	aActs []ioa.Action
	bNum  ioa.Numbered
	toB   []int32

	// The image: row(v) lists, in Map's order, the positions in Reach(B)
	// of the possibilities of node v, unreachable standing for one
	// outside Reach(B).
	off []int // row(v) is ids[off[v]:off[v+1]]
	ids []uint32

	match    func(ioa.State) bool // matchStep, bound
	next     []uint32             // row(a′) of the step being checked
	matched  bool
	missedAt ioa.State // a successor of a possibility outside Reach(B)

	fail func(reachA []ioa.State) error // the first failure
	// Under Obs: states and steps checked, nodes admitted, and when the
	// previous expansion ended.
	checked, steps, admitted int64
	last                     time.Time
}

func (h *PossMapping) newWalk(b *posIndex, state func(a ioa.State, poss []ioa.State) error) *walk {
	w := &walk{h: h, state: state, b: b, aActs: ioa.Number(h.A).Actions(), bNum: ioa.Number(h.B), off: []int{0}}
	for _, act := range w.aActs {
		i, inB := slices.BinarySearch(w.bNum.Actions(), act)
		if !inB {
			i = -1
		}
		w.toB = append(w.toB, int32(i))
	}
	w.match = w.matchStep
	return w
}

// run walks A and returns the engine's error, else the first failure.
func (w *walk) run(opts explore.Options) error {
	if w.o != nil {
		w.last = w.o.Now()
		defer func() {
			w.o.Proof.MapStates.Add(w.checked)
			w.o.Proof.MapSteps.Add(w.steps)
			w.o.EmitProgress(obs.Progress{Phase: "proof", States: w.checked, Total: w.admitted, Done: true})
		}()
	}
	reachA, err := w.relayed(opts)
	if err != nil || w.fail == nil {
		return err
	}
	return w.fail(reachA)
}

// relayBatch is how many Visitor calls the walk's goroutine hands over
// at a time, and relayDepth how many full batches may wait. On
// arbiter-certify batches of 2 048 cost 2–5 % more peak RSS and were
// no faster, and a depth of 1 was 2–3 % slower.
const relayBatch, relayDepth = 256, 4

// An event is one Visitor call: Admit(v, w, s), Edge(v, act, w) or
// Expanded(v).
type event struct {
	kind byte // 'a', 'e' or 'x'
	act  int32
	v, w int
	s    ioa.State
}

// A relay is the Visitor of a walk of A on its own goroutine. It
// appends each call to a batch, sends each full batch on full and
// takes a replayed one back from free, or makes one.
type relay struct {
	full, free chan []event
	buf        []event
}

func (r *relay) Admit(v, parent int, s ioa.State) { r.push(event{kind: 'a', v: v, w: parent, s: s}) }
func (r *relay) Edge(from int, act int32, to int) {
	r.push(event{kind: 'e', v: from, w: to, act: act})
}
func (r *relay) Expanded(v int) { r.push(event{kind: 'x', v: v}) }

func (r *relay) push(e event) {
	if r.buf = append(r.buf, e); len(r.buf) == relayBatch {
		r.flush()
	}
}

func (r *relay) flush() {
	r.full <- r.buf
	select {
	case r.buf = <-r.free:
	default:
		r.buf = make([]event, 0, relayBatch)
	}
}

// relayed walks A on a goroutine of its own behind a relay and replays
// the relay's batches into w on this one; the goroutine has exited when
// relayed returns or panics. A panic in the walk is recovered there and
// raised again here, once every batch before it is replayed. A panic
// here (in Map or B's Next) cancels the walk, which its engine notices
// within 64 states, and the batches it sends until then are discarded.
func (w *walk) relayed(opts explore.Options) (reachA []ioa.State, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	// At most relayDepth+2 batches exist (one filling, the queued ones,
	// one replaying), so returning one to free never blocks.
	r := &relay{full: make(chan []event, relayDepth), free: make(chan []event, relayDepth+2),
		buf: make([]event, 0, relayBatch)}
	defer func() {
		cancel()
		for range r.full { // empty but for a panic here
		}
	}()
	var fault any
	go func() {
		defer close(r.full)
		defer func() { fault = recover() }()
		reachA, err = explore.New(opts).Visit(ctx, w.h.A, r)
		r.flush()
	}()
	for b := range r.full {
		if w.o != nil {
			w.last = w.o.Now() // the wait for this batch is the walk's time
		}
		for _, e := range b {
			switch e.kind {
			case 'a':
				w.Admit(e.v, e.w, e.s)
			case 'e':
				w.Edge(e.v, e.act, e.w)
			default:
				w.Expanded(e.v)
			}
		}
		r.free <- b[:0]
	}
	if fault != nil {
		panic(fault)
	}
	return reachA, err
}

func (w *walk) row(v int) []uint32 { return w.ids[w.off[v]:w.off[v+1]] }

// Admit calls Map on a, checks the state and appends its row.
func (w *walk) Admit(_, _ int, a ioa.State) {
	w.admitted++
	poss := w.h.Map(a)
	if w.state != nil && w.fail == nil {
		if err := w.state(a, poss); err != nil {
			w.fail = func([]ioa.State) error { return err }
		}
	}
	if w.b == nil {
		return
	}
	for _, s := range poss {
		w.ids = append(w.ids, w.b.find(s))
	}
	w.off = append(w.off, len(w.ids))
}

// Edge checks condition 2 on the step (from, act, to) against every
// reachable possibility of from, in Map's order, stepping B by number.
func (w *walk) Edge(from int, i int32, to int) {
	if w.b == nil || w.fail != nil {
		return
	}
	w.steps++
	w.next = w.row(to)
	act, bi := w.aActs[i], w.toB[i]
	for _, p := range w.row(from) {
		if p == unreachable {
			continue // the condition applies to reachable possibilities only
		}
		b := w.b.states[p]
		if bi < 0 {
			if !slices.Contains(w.next, p) {
				w.fail = func(reachA []ioa.State) error {
					return w.h.errNotPreserved(reachA[from], act, reachA[to], b)
				}
				return
			}
			continue
		}
		w.matched, w.missedAt = false, nil
		w.bNum.NextNum(nil, b, bi, w.match)
		if missed := w.missedAt; missed != nil {
			w.fail = func([]ioa.State) error { return errOutsideReach(w.h.B, b, act, missed) }
			return
		}
		if !w.matched {
			w.fail = func(reachA []ioa.State) error {
				return w.h.errNoMatch(reachA[from], act, reachA[to], b)
			}
			return
		}
	}
}

// matchStep looks for a successor of the possibility among h(a′).
func (w *walk) matchStep(bNext ioa.State) bool {
	q := w.b.find(bNext)
	if q == unreachable {
		w.missedAt = bNext
		return false
	}
	w.matched = slices.Contains(w.next, q)
	return !w.matched
}

// Expanded counts v as checked and, every walkProgressStride states,
// reports progress.
func (w *walk) Expanded(v int) {
	if w.o == nil || w.fail != nil {
		return
	}
	now := w.o.Now()
	w.o.Proof.StateNS.Observe(now.Sub(w.last).Nanoseconds())
	w.last = now
	w.checked++
	if v%walkProgressStride == 0 {
		w.o.EmitProgress(obs.Progress{Phase: "proof", States: w.checked, Total: w.admitted})
	}
}

// errOutsideReach is the internal error of a probe miss on a successor
// of a reachable state. Reach completed without ErrLimit, so its result
// is closed under steps: a miss means x's Next or its encoding gave two
// answers for one state.
func errOutsideReach(x ioa.Automaton, from ioa.State, act ioa.Action, to ioa.State) error {
	return fmt.Errorf("proof: internal error: step (%q, %s, %q) of %s leaves its completed Reach", from.Key(), act, to.Key(), x.Name())
}

// refuseCanon rejects a canonicalizer. Reach would then return one
// representative per orbit, and nothing argues that the conditions of
// a possibilities mapping checked on the representatives alone are the
// conditions on the automaton, or that a lasso over representatives is
// an execution.
func refuseCanon(opts explore.Options) error {
	if opts.Canon == nil {
		return nil
	}
	return fmt.Errorf("proof: Options.Canon (%s) is not supported: these checks run on every reachable state, not on one per orbit", opts.Canon.Name())
}

func (h *PossMapping) errNotPreserved(a ioa.State, act ioa.Action, aNext, b ioa.State) error {
	return fmt.Errorf("%w: step (%q, %s, %q) of %s: possibility %q not preserved (action outside acts(%s))",
		ErrNotPossibilities, a.Key(), act, aNext.Key(), h.A.Name(), b.Key(), h.B.Name())
}

func (h *PossMapping) errNoMatch(a ioa.State, act ioa.Action, aNext, b ioa.State) error {
	return fmt.Errorf("%w: step (%q, %s, %q) of %s: no matching step of %s from possibility %q",
		ErrNotPossibilities, a.Key(), act, aNext.Key(), h.A.Name(), h.B.Name(), b.Key())
}
