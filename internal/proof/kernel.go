package proof

// The possibilities-mapping kernel: what VerifyOpts,
// FairSatisfiesViaMappingOpts and TransferDownOpts run on.
//
// A check starts from Reach(B) and Reach(A) through the engine. Each
// result is frozen behind a position index (posIndex: hash of the
// streamed encoding → position in the result, confirmed against the
// state stored there), so "is b reachable" and "which state is this
// successor" are probes that return a position, and no state is asked
// for its Key(). h.Map is then called once per reachable state of A, on
// the calling goroutine, and resolved into one flat table of B
// positions (image); from there on the checks compare positions.
//
// Condition 2 is a pass over the positions of Reach(A) sharded over
// Options.Workers by chunks off a shared cursor, the way the engine
// shards a level. The error it returns is canonical: each worker walks
// a state's steps in the sequential order (sorted action, Next order,
// Map order) and so finds that state's first failure; the failure at
// the least position wins; and every position below a reported failure
// is still checked to the end, because chunks are claimed in ascending
// order and a worker only abandons positions above the least failure
// known. That is the error a sequential loop over Reach(A) returns, at
// any worker count.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

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
// mapping kernel"). Read-only once built, so any number of goroutines
// may probe it, each through its own probe buffers.
type posIndex struct {
	states []ioa.State
	slots  []uint64 // 0 = empty, else hash&^MaxUint32 | position+1
	mask   uint64
}

// probe holds one goroutine's encoding buffers for posIndex.find.
type probe struct{ enc, cmp []byte }

// reachIndexed explores x and freezes a position index over the result.
// Engine errors — ErrLimit, cancellation, storage — pass through.
func reachIndexed(opts explore.Options, x ioa.Automaton) (*posIndex, error) {
	states, err := explore.New(opts).Reach(context.Background(), x)
	if err != nil {
		return nil, err
	}
	return indexStates(states)
}

// indexStates freezes a position index over states, which must be
// pairwise distinct (a Reach result is).
func indexStates(states []ioa.State) (*posIndex, error) {
	if len(states) >= unreachable {
		return nil, fmt.Errorf("proof: %d reachable states exceed the position index", len(states))
	}
	size := 1
	for size < 2*len(states) {
		size <<= 1
	}
	idx := &posIndex{states: states, slots: make([]uint64, size), mask: uint64(size - 1)}
	var enc []byte
	for pos, s := range states {
		enc = ioa.AppendState(enc[:0], s)
		h := store.Hash(enc)
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
func (x *posIndex) find(p *probe, s ioa.State) uint32 {
	p.enc = ioa.AppendState(p.enc[:0], s)
	h := store.Hash(p.enc)
	for i := h & x.mask; ; i = (i + 1) & x.mask {
		slot := x.slots[i]
		if slot == 0 {
			return unreachable
		}
		if slot&^math.MaxUint32 != h&^math.MaxUint32 {
			continue
		}
		pos := uint32(slot) - 1
		p.cmp = ioa.AppendState(p.cmp[:0], x.states[pos])
		if bytes.Equal(p.enc, p.cmp) {
			return pos
		}
	}
}

// mapAll explores A and hands each reachable state, with h.Map of it,
// to row: in Reach's order, on the calling goroutine, once per state.
// It is the only place a check applies Map to the reachable states,
// which is what holds Map's contract (PossMapping.Map).
func (h *PossMapping) mapAll(opts explore.Options, row func(a ioa.State, poss []ioa.State) error) ([]ioa.State, error) {
	reachA, err := explore.New(opts).Reach(context.Background(), h.A)
	if err != nil {
		return nil, err
	}
	for _, a := range reachA {
		if err := row(a, h.Map(a)); err != nil {
			return nil, err
		}
	}
	return reachA, nil
}

// An image is h over the reachable states: row(i) lists, in Map's
// order, the positions in Reach(B) of the possibilities of reachA[i],
// unreachable standing for a possibility outside Reach(B).
type image struct {
	reachA []ioa.State
	b      *posIndex
	off    []int // row(i) is ids[off[i]:off[i+1]]
	ids    []uint32
}

func (m *image) row(i int) []uint32 { return m.ids[m.off[i]:m.off[i+1]] }

// image explores A and tabulates h against the indexed Reach(B).
func (h *PossMapping) image(opts explore.Options, b *posIndex) (*image, error) {
	m := &image{b: b}
	var p probe
	var err error
	m.reachA, err = h.mapAll(opts, func(_ ioa.State, poss []ioa.State) error {
		m.off = append(m.off, len(m.ids))
		for _, s := range poss {
			m.ids = append(m.ids, b.find(&p, s))
		}
		return nil
	})
	m.off = append(m.off, len(m.ids))
	return m, err
}

const (
	// condChunk is how many positions of Reach(A) a worker claims at a
	// time (a state costs microseconds, so a chunk is well under a
	// millisecond and the tail imbalance stays small).
	condChunk = 64
	// condProgressStride is how many checked states separate two
	// heartbeats of the condition pass.
	condProgressStride = 8192
)

// condPass is the state the workers of one condition-2 pass share. All
// of it but the cursor, the failure record and the heartbeat count is
// read-only during the pass.
type condPass struct {
	h     *PossMapping
	o     *obs.Obs
	a     *posIndex // over m.reachA
	m     *image
	bActs ioa.Set

	cursor atomic.Int64 // next unclaimed position
	least  atomic.Int64 // least failing position reported; len(reachA) while none
	done   atomic.Int64 // states checked so far (kept only with Obs)

	mu   sync.Mutex // guards fail
	fail error      // the failure at position least
}

// condition2 checks condition 2 of the mapping over every reachable
// state of A and returns the canonical first failure (see the file
// comment). The calling goroutine is worker 0 and the only one that
// emits progress.
func (h *PossMapping) condition2(opts explore.Options, m *image) error {
	a, err := indexStates(m.reachA)
	if err != nil {
		return err
	}
	c := &condPass{h: h, o: opts.Obs, a: a, m: m, bActs: h.B.Sig().Acts()}
	n := int64(len(m.reachA))
	c.least.Store(n)
	workers := min(opts.WorkerCount(), (len(m.reachA)+condChunk-1)/condChunk) // no more than chunks
	var wg sync.WaitGroup
	for wi := 1; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			c.work(wi)
		}(wi)
	}
	c.work(0)
	wg.Wait()
	c.o.EmitProgress(obs.Progress{Phase: "proof", States: c.done.Load(), Total: n, Done: true})
	return c.fail
}

// work is one worker's share of the pass: chunks off the cursor until
// they run out or start above the least failure known.
func (c *condPass) work(wi int) {
	w := &condWorker{c: c, step: ioa.NewWalk(c.h.A, true)}
	// The two yields are bound once, so stepping allocates nothing.
	check := w.checkStep
	w.match = w.matchStep
	n := len(c.m.reachA)
	var states, beat int64
	for {
		start := int(c.cursor.Add(condChunk)) - condChunk
		if start >= n || int64(start) > c.least.Load() {
			break
		}
		end := min(start+condChunk, n)
		i := start
		for ; i < end && int64(i) < c.least.Load(); i++ {
			stateStart := c.o.Now()
			w.a, w.row = c.m.reachA[i], c.m.row(i)
			w.step.Visit(w.a, check)
			if c.o != nil {
				c.o.Proof.StateNS.ObserveShard(wi, c.o.Now().Sub(stateStart).Nanoseconds())
			}
			states++
			if w.err != nil {
				c.report(i, w.err)
				break
			}
		}
		if c.o == nil {
			continue
		}
		// The heartbeat: every worker counts, worker 0 reports.
		d := c.done.Add(int64(i - start))
		if wi == 0 && d >= beat {
			beat = d - d%condProgressStride + condProgressStride
			c.o.EmitProgress(obs.Progress{Phase: "proof", States: d, Total: int64(n)})
		}
	}
	// One flush per worker, so the totals do not depend on how the
	// chunks fell.
	if c.o != nil {
		c.o.Proof.MapStates.AddShard(wi, states)
		c.o.Proof.MapSteps.AddShard(wi, w.steps)
	}
}

// report records a failure at position i if it is the least so far.
func (c *condPass) report(i int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if int64(i) < c.least.Load() {
		c.least.Store(int64(i))
		c.fail = err
	}
}

// condWorker is one goroutine's side of the pass: its own Walk and
// probe buffers, and the state and step it is on.
type condWorker struct {
	c     *condPass
	step  *ioa.Walk
	probe probe
	match func(ioa.State) bool // matchStep, bound

	a    ioa.State // the state being checked
	row  []uint32  // h(a)
	next []uint32  // h(a′) of the step being checked

	matched, missed bool
	missedAt        ioa.State // the successor of a possibility that missed Reach(B)
	err             error     // a's first failure
	steps           int64
}

// checkStep checks condition 2 on the step (a, step.Act, aNext),
// against every reachable possibility of a in Map's order, and stops
// a's enumeration at the first failure.
func (w *condWorker) checkStep(aNext ioa.State) bool {
	c, act := w.c, w.step.Act
	w.steps++
	j := c.a.find(&w.probe, aNext)
	if j == unreachable {
		w.err = errOutsideReach(c.h.A, w.a, act, aNext)
		return false
	}
	w.next = c.m.row(int(j))
	inB := c.bActs.Has(act)
	for _, p := range w.row {
		if p == unreachable {
			continue // the condition applies to reachable possibilities only
		}
		b := c.m.b.states[p]
		if !inB {
			if !slices.Contains(w.next, p) {
				w.err = c.h.errNotPreserved(w.a, act, aNext, b)
				return false
			}
			continue
		}
		w.matched, w.missed = false, false
		c.h.B.Next(nil, b, act, w.match)
		if w.missed {
			w.err = errOutsideReach(c.h.B, b, act, w.missedAt)
			return false
		}
		if !w.matched {
			w.err = c.h.errNoMatch(w.a, act, aNext, b)
			return false
		}
	}
	return true
}

// matchStep looks for a successor of the possibility among h(a′).
func (w *condWorker) matchStep(bNext ioa.State) bool {
	q := w.c.m.b.find(&w.probe, bNext)
	if q == unreachable {
		w.missed, w.missedAt = true, bNext
		return false
	}
	w.matched = slices.Contains(w.next, q)
	return !w.matched
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
