package ioa

import "sync/atomic"

// A Scratch is one goroutine's bump memory for successor tuples: part
// slots and TupleState headers handed out of fixed chunks that are
// allocated once and never move. Reset rewinds both, so a walk that
// borrows its successors allocates nothing once the chunks exist.
//
// A state built in a Scratch is borrowed: it — and every nested tuple
// it was built over — is valid until the next Reset of that Scratch and
// is overwritten after. Keep returns a state that outlives it. Not safe
// for concurrent use; the zero Scratch is ready.
type Scratch struct {
	slots [][]State      // part-slot chunks
	heads [][]TupleState // tuple-header chunks
	// The chunk being filled and how much of it is handed out; chunks
	// below it are handed out in full (less a tail too short for the
	// request that moved on).
	slotChunk, slotUsed int
	headChunk, headUsed int
}

const (
	// scratchSlots and scratchHeads size the chunks: one Step.Visit of
	// the closed seven-user arbiter hands out about a hundred slots and
	// a dozen headers.
	scratchSlots = 512
	scratchHeads = 64
)

// poisonScratch is the test-only switch SetScratchPoison flips.
var poisonScratch atomic.Bool

// SetScratchPoison turns Scratch poisoning on or off, process-wide. It
// exists for tests: while on, Reset overwrites every slot it handed out
// with a state whose Key is PoisonKey and abandons the chunks instead of
// reusing them, so a borrowed state retained without Keep reads as
// PoisonKey from the Reset on, whatever is built afterwards. The
// exploration test binaries run with it on, which turns their
// differential batteries into checks of the borrow contract.
func SetScratchPoison(on bool) { poisonScratch.Store(on) }

// PoisonKey is the Key of what a poisoned Scratch leaves in a borrowed
// state's slots.
const PoisonKey = "ioa: borrowed state read after its Scratch was reset (retain with ioa.Keep)"

type poisonState struct{}

func (poisonState) Key() string { return PoisonKey }

// Reset takes back everything the Scratch handed out.
func (sc *Scratch) Reset() {
	if poisonScratch.Load() {
		sc.poison()
	}
	sc.slotChunk, sc.slotUsed, sc.headChunk, sc.headUsed = 0, 0, 0, 0
}

// poison overwrites what was handed out and drops the memory, so no
// later borrow can make a retained state look valid again.
func (sc *Scratch) poison() {
	for _, chunk := range sc.slots {
		for i := range chunk {
			chunk[i] = poisonState{}
		}
	}
	for _, chunk := range sc.heads {
		for i := range chunk {
			chunk[i].key.Store(nil)
		}
	}
	sc.slots, sc.heads = nil, nil
}

// tuple returns a tuple state with a copy of parts: borrowed from the
// scratch, or — the nil Scratch — allocated on the heap like
// NewTupleState's. The caller may overwrite parts of the copy before it
// hands the tuple on.
func (sc *Scratch) tuple(parts []State) *TupleState {
	t := sc.blank(len(parts))
	copy(t.parts, parts)
	return t
}

// blank returns a tuple state of n parts for the caller to fill: borrowed
// from the scratch, where its parts hold whatever they last held, or —
// the nil Scratch — on the heap, all nil.
func (sc *Scratch) blank(n int) *TupleState {
	if sc == nil {
		return &TupleState{parts: make([]State, n)}
	}
	for sc.slotChunk < len(sc.slots) && len(sc.slots[sc.slotChunk])-sc.slotUsed < n {
		sc.slotChunk, sc.slotUsed = sc.slotChunk+1, 0
	}
	if sc.slotChunk == len(sc.slots) {
		sc.slots = append(sc.slots, make([]State, max(scratchSlots, n)))
	}
	own := sc.slots[sc.slotChunk][sc.slotUsed : sc.slotUsed+n : sc.slotUsed+n]
	sc.slotUsed += n

	if sc.headChunk < len(sc.heads) && sc.headUsed == len(sc.heads[sc.headChunk]) {
		sc.headChunk, sc.headUsed = sc.headChunk+1, 0
	}
	if sc.headChunk == len(sc.heads) {
		sc.heads = append(sc.heads, make([]TupleState, scratchHeads))
	}
	t := &sc.heads[sc.headChunk][sc.headUsed]
	sc.headUsed++
	t.parts, t.borrowed = own, true
	// A reused header may carry the key of the state it held last.
	if t.key.Load() != nil {
		t.key.Store(nil)
	}
	return t
}

// Keep returns a state equal to s that outlives any Scratch: s itself
// unless it is borrowed, otherwise a heap copy of the borrowed tuple
// with each of its parts kept the same way — so the copy costs the
// levels the step rebuilt and shares every part it left alone with the
// parent state.
func Keep(s State) State {
	t, ok := s.(*TupleState)
	if !ok || !t.borrowed {
		return s
	}
	kept := &TupleState{parts: make([]State, len(t.parts))}
	for i, p := range t.parts {
		kept.parts[i] = Keep(p)
	}
	// A key built during the borrow (an error text, a predicate) is the
	// copy's key too.
	kept.key.Store(t.key.Load())
	return kept
}
