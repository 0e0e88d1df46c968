package proof

// The possibilities-mapping kernel: what VerifyOpts,
// FairSatisfiesViaMappingOpts and TransferDownOpts run on.
//
// A check that needs B's reachable states explores B through the
// engine, at Options.Workers, and freezes the result behind a position
// index (posIndex: hash of the streamed encoding → position in the
// result, confirmed against the state stored there), so "is b
// reachable" and "which state is this successor of b" are probes that
// return a position, and no state is asked for its Key().
//
// A itself is walked once, by the engine's sequential kernel
// (explore.Engine.Visit), and checked as it goes: h.Map is called on
// each state as it is admitted, on the calling goroutine, and resolved
// into the state's row of B positions (an image); condition 2 is then
// checked on each step as the engine emits it, comparing positions.
// The steps come node by node in discovery order, then sorted action,
// then Next order, and each is checked against the possibilities in
// Map order, so the first failure is the one a sequential loop over
// Reach(A) finds, at any worker count. After it the walk runs to the
// end and checks nothing more: the engine's own errors (ErrLimit,
// cancellation, storage) take precedence, and Map is still called once
// per admitted state.

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

// A walk is one check's single pass over A, an explore.Visitor. Every
// admitted state a is handed, with h.Map(a), to state; with b set, its
// possibilities are also resolved into a row of positions in Reach(B)
// and condition 2 is checked on every step. The first failure is kept
// in fail, to be formatted once the walk has returned A's states.
type walk struct {
	h     *PossMapping
	state func(a ioa.State, poss []ioa.State) error // nil: no per-state check
	b     *posIndex                                 // nil: no rows, no condition 2
	bActs ioa.Set
	o     *obs.Obs // progress and the proof metrics, under VerifyOpts

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
	w := &walk{h: h, state: state, b: b, bActs: h.B.Sig().Acts(), off: []int{0}}
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
	reachA, err := explore.New(opts).Visit(context.Background(), w.h.A, w)
	if err != nil || w.fail == nil {
		return err
	}
	return w.fail(reachA)
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
// reachable possibility of from, in Map's order.
func (w *walk) Edge(from int, act ioa.Action, to int) {
	if w.b == nil || w.fail != nil {
		return
	}
	w.steps++
	w.next = w.row(to)
	inB := w.bActs.Has(act)
	for _, p := range w.row(from) {
		if p == unreachable {
			continue // the condition applies to reachable possibilities only
		}
		b := w.b.states[p]
		if !inB {
			if !slices.Contains(w.next, p) {
				w.fail = func(reachA []ioa.State) error {
					return w.h.errNotPreserved(reachA[from], act, reachA[to], b)
				}
				return
			}
			continue
		}
		w.matched, w.missedAt = false, nil
		w.h.B.Next(nil, b, act, w.match)
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
