package explore

// Parallel state-space exploration over the interned state store: a
// level-synchronized BFS. Workers steal fixed-size chunks of the
// frontier off a shared cursor, encode and hash each successor once and
// deduplicate it in their own store.LevelSet before they probe the
// store, so duplicates within a level never reach it (delayed duplicate
// detection); each orders its set as it leaves the level. At the
// barrier the coordinator merges the ordered sets and appends the level
// to the store, every encoding known absent, without a second lookup.
// The store is frozen (read-only) during expansion and written only
// between levels by the coordinator, in canonical order — so no two
// goroutines ever write shared state. Which actions a state is stepped
// by is ioa.Walk's decision.
//
// Determinism (DESIGN.md "Exploration engine" has the argument in
// full). The states discovered at depth d are a pure function of those
// at depths < d: membership is decided against a store frozen during
// expansion. Scheduling decides which worker's set a candidate lands in
// and when, but a set keeps the candLess-least candidate per encoding,
// the merge keeps the least of the sets' minima, and a minimum does not
// depend on arrival order. Each level is then in key order (encoding
// order — the key's bytes — without a canonicalizer) and interned in
// that order, so results are bit-identical at any worker count:
// depth-major, key-minor, each state with its least (parent ID, action)
// crumb. Under Options.Canon all of this holds of orbits, candLess
// picking each orbit's concrete representative.

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ioa"
	"repro/internal/obs"
	"repro/internal/store"
)

// crumb is the canonical discovery record of one interned state,
// indexed by its dense ID: the least (parent ID, action) transition
// that reached it. Start states carry parent store.None.
type crumb struct {
	parent store.ID
	act    ioa.Action
}

// cand is one candidate new state of a level and the transition that
// found it; its encoding and hash live in the level set that keeps it.
type cand struct {
	state  ioa.State
	parent store.ID
	act    ioa.Action
}

// candLess orders candidates for the same stored encoding: least
// (state key, parent, act) wins, making both the kept concrete
// representative and its witness crumb deterministic. Without a
// canonicalizer (byKey false) equal encodings are equal states, no key
// is built, and the rule is the seed's least (parent, act); under
// symmetry quotienting they are orbit-mates whose concrete states may
// differ, and the least key picks the same representative regardless of
// worker scheduling — with the crumb that actually produced that
// concrete state, so witnesses remain genuine executions. parent IDs
// are comparable as keys because all candidates' parents sit in the
// same (key-sorted-interned) level.
func candLess(a, b cand, byKey bool) bool {
	if byKey {
		if ak, bk := a.state.Key(), b.state.Key(); ak != bk {
			return ak < bk
		}
	}
	if a.parent != b.parent {
		return a.parent < b.parent
	}
	return a.act < b.act
}

// member is one state of a merged level: the kept candidate and the
// entry of sets[set] that holds its encoding.
type member struct {
	cand
	set, entry int
}

// levelScratch is what a level is deduplicated and ordered in: one set
// per worker, keeping the candLess-least candidate per encoding, the
// part of each set's Order the merge has not consumed, and the merged
// result. Allocated once per exploration and reset per level, it costs
// memory in proportion to workers × the widest level's distinct new
// states.
type levelScratch struct {
	byKey  bool // Options.Canon is set: order and dedup follow Key()
	sets   []store.LevelSet[cand]
	orders [][]int
	next   []member
}

func newLevelScratch(workers int, byKey bool) *levelScratch {
	lv := &levelScratch{byKey: byKey, sets: make([]store.LevelSet[cand], workers), orders: make([][]int, workers)}
	for wi := range lv.sets {
		lv.sets[wi].Less = func(a, b cand) bool { return candLess(a, b, byKey) }
	}
	return lv
}

// add offers c, whose state may be borrowed from a Walk, to worker wi's
// set.
func (lv *levelScratch) add(wi int, enc []byte, hash uint64, c cand) {
	keep(lv.sets[wi].Add(enc, hash, c))
}

// keep copies the state of a candidate a set kept, which may be
// borrowed from a Walk; nil means the set kept what it had.
func keep(kept *cand) {
	if kept != nil {
		kept.state = ioa.Keep(kept.state)
	}
}

// reset empties worker wi's set as it starts a level.
func (lv *levelScratch) reset(wi int) { lv.sets[wi].Reset() }

// order sorts worker wi's set as it leaves a level.
func (lv *levelScratch) order(wi int) { lv.orders[wi] = lv.sets[wi].Order() }

// encoding returns the bytes and hash of a merged member.
func (lv *levelScratch) encoding(m member) ([]byte, uint64) {
	s := &lv.sets[m.set]
	return s.Key(m.entry), s.Hash(m.entry)
}

// gather merges the ordered sets into the level's distinct members in
// canonical order, keeping the candLess-least candidate per encoding;
// they and their encodings are valid until the next reset.
func (lv *levelScratch) gather() []member {
	clear(lv.next)
	lv.next = lv.next[:0]
	head := func(wi int) []byte { return lv.sets[wi].Key(lv.orders[wi][0]) }
	for {
		// The first set whose head is the least encoding; later sets
		// may hold it too, earlier ones cannot.
		least := -1
		for wi, ord := range lv.orders {
			if len(ord) > 0 && (least < 0 || bytes.Compare(head(wi), head(least)) < 0) {
				least = wi
			}
		}
		if least < 0 {
			break
		}
		key, m := head(least), member{set: -1}
		for wi := least; wi < len(lv.orders); wi++ {
			if ord := lv.orders[wi]; len(ord) > 0 && bytes.Equal(head(wi), key) {
				if c := lv.sets[wi].Payload(ord[0]); m.set < 0 || candLess(c, m.cand, lv.byKey) {
					m = member{cand: c, set: wi, entry: ord[0]}
				}
				lv.orders[wi] = ord[1:]
			}
		}
		lv.next = append(lv.next, m)
	}
	if lv.byKey {
		slices.SortFunc(lv.next, func(a, b member) int { return strings.Compare(a.state.Key(), b.state.Key()) })
	}
	return lv.next
}

// parallelExplore is the shared engine under the parallel Reach and
// CheckInvariant paths. When pred is non-nil it is evaluated on every
// level in canonical order and the first failing state is returned as
// a Violation with a witness built from the canonical crumb chain.
// deadlocks counts the expanded states that enabled nothing: all of
// them when the walk ran to completion.
// Cancellation is checked at level granularity.
func (e *Engine) parallelExplore(ctx context.Context, a ioa.Automaton, pred func(ioa.State) bool) (states []ioa.State, v *Violation, maxDepth int, deadlocks int64, err error) {
	ctx = ctxOr(ctx)
	w := e.opts.WorkerCount()
	limit := e.opts.limit()
	o := e.opts.Obs
	if o != nil {
		o.Tracer.NameThread(0, "coordinator")
		for wi := 0; wi < w; wi++ {
			o.Tracer.NameThread(wi+1, fmt.Sprintf("worker %d", wi))
		}
		defer o.Tracer.Span(0, "explore", "explore "+a.Name())()
	}
	gst, err := store.Open(e.opts.Spill, e.opts.Canon)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	//lint:ignore errflow storage failures surface through the sticky Err checks; Close here only releases temp files
	defer gst.Close()
	// states is indexed by ID and is also the returned order; maxDepth
	// is the last completed BFS level.
	rep := reporter{o: o, st: gst, phase: "explore"}
	defer func() { rep.emit(int64(maxDepth), int64(len(states)), 0, true) }()
	var crumbs []crumb // indexed by ID; kept only under a predicate
	// One probe and one Walk per worker, for the whole run.
	probes := make([]store.MemberProbe, w)
	steps := make([]*ioa.Walk, w)
	for i := range probes {
		probes[i] = gst.Probe()
		steps[i] = ioa.NewWalk(a, false)
	}

	lv := newLevelScratch(w, e.opts.Canon != nil)
	// admit interns a merged level, whose encodings all missed their
	// probes, in order. IDs are dense, so the next frontier is the tail
	// of states it adds.
	admit := func(next []member) {
		gst.AppendFresh(len(next), w, func(i int) ([]byte, uint64) { return lv.encoding(next[i]) })
		for _, m := range next {
			states = append(states, m.state)
			if pred != nil {
				crumbs = append(crumbs, crumb{parent: m.parent, act: m.act})
			}
		}
	}

	// Level 0: the start states, deduplicated, sorted and interned like
	// any level (ID order equals key order within a level from the
	// start) but, as in the sequential explorer, regardless of the limit.
	var enc []byte
	for _, s := range a.Start() {
		enc = gst.AppendCanonical(enc[:0], s)
		lv.add(0, enc, store.Hash(enc), cand{state: s, parent: store.None})
	}
	lv.order(0)
	admit(lv.gather())
	if err := gst.Err(); err != nil {
		return nil, nil, 0, 0, seenErr(a, err)
	}
	if pred != nil {
		if v := checkLevel(a, states, crumbs, 0, pred); v != nil {
			return states, v, maxDepth, deadlocks, nil
		}
		if len(states) >= limit {
			return states, nil, maxDepth, deadlocks, errLimit(a, limit)
		}
	}

	for depth, from := 1, 0; from < len(states); depth++ {
		if err := ctx.Err(); err != nil {
			return states, nil, maxDepth, deadlocks, err
		}
		levelStart := o.Now()
		frontier := len(states) - from
		next, dead := expandLevel(a, gst, lv, states, from, probes, steps, depth, o)
		deadlocks += dead
		if err := gst.Err(); err != nil {
			// A worker's probe latched a storage failure during the
			// frozen phase: the candidate set may be incomplete, so the
			// level is abandoned.
			return states, nil, maxDepth, deadlocks, seenErr(a, err)
		}
		if o != nil {
			o.Explore.Levels.Add(1)
			o.Explore.Frontier.Observe(int64(frontier))
			o.Explore.LevelNS.Observe(o.Now().Sub(levelStart).Nanoseconds())
			o.Tracer.Complete(0, "explore", fmt.Sprintf("level %d", depth), levelStart,
				map[string]any{"frontier": frontier, "new": len(next)})
			o.Tracer.CounterEvent(0, "memo", o.Memo.Values())
		}
		if len(next) == 0 {
			break
		}
		room := limit - len(states)
		if room <= 0 {
			// An unseen state exists beyond a full budget: the
			// sequential contract returns the partial result as-is.
			return states, nil, maxDepth, deadlocks, errLimit(a, limit)
		}
		over := len(next) > room
		if over {
			next = next[:room]
		}
		maxDepth = depth
		from = len(states)
		admit(next)
		if err := gst.Err(); err != nil {
			return states[:from], nil, maxDepth, deadlocks, seenErr(a, err)
		}
		rep.emit(int64(depth), int64(len(states)), int64(len(states)-from), false)
		if pred != nil {
			if v := checkLevel(a, states, crumbs, from, pred); v != nil {
				return states, v, maxDepth, deadlocks, nil
			}
		}
		// With a predicate, mirror CheckInvariant's stricter budget
		// check: it errors once the node store is full even when the
		// frontier is about to empty.
		if over || (pred != nil && len(states) >= limit) {
			return states, nil, maxDepth, deadlocks, errLimit(a, limit)
		}
	}
	return states, nil, maxDepth, deadlocks, nil
}

// expandLevel computes the undiscovered successors of the frontier
// states[from:], deduplicated (canonical least crumb per state) and in
// canonical order, ready for the coordinator to intern, and counts the
// frontier states that enable nothing. The store is frozen meanwhile;
// a worker asks it only about successors its own row of lv's sets
// lacks, a hit there being a duplicate the store cannot hold.
func expandLevel(a ioa.Automaton, seen store.SeenSet, lv *levelScratch, states []ioa.State, from int,
	probes []store.MemberProbe, steps []*ioa.Walk, depth int, o *obs.Obs) (next []member, deadlocks int64) {
	var cursor int64
	const chunk = 16
	var wg sync.WaitGroup
	for wi := range probes {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			lv.reset(wi)
			// The per-worker tally is a plain local (register
			// increments), flushed to the sharded counter once per
			// level — so the disabled path stays metric-free and the
			// enabled path stays contention-free.
			var emitted, dead int64
			workStart := o.Now()
			probe, step, set := probes[wi], steps[wi], &lv.sets[wi]
			var curParent store.ID
			var enc []byte
			yield := func(nxt ioa.State) bool {
				enc = seen.AppendCanonical(enc[:0], nxt)
				h := store.Hash(enc)
				if i, ok := set.Lookup(enc, h); ok {
					emitted++
					keep(set.Offer(i, cand{state: nxt, parent: curParent, act: step.Act}))
				} else if _, ok := probe.Lookup(enc, h); !ok {
					emitted++
					keep(set.AddNew(enc, h, cand{state: nxt, parent: curParent, act: step.Act}))
				}
				return true
			}
			for {
				end := from + int(atomic.AddInt64(&cursor, chunk))
				if end-chunk >= len(states) {
					break
				}
				for i := end - chunk; i < min(end, len(states)); i++ {
					curParent = store.ID(i)
					step.Visit(states[i], yield)
					if step.Enabled == 0 {
						dead++
					}
				}
			}
			lv.order(wi)
			atomic.AddInt64(&deadlocks, dead)
			if o != nil {
				o.Explore.Successors.AddShard(wi, emitted)
				o.Tracer.Complete(wi+1, "explore", "expand", workStart,
					map[string]any{"level": depth, "emitted": emitted})
			}
		}(wi)
	}
	wg.Wait()
	return lv.gather(), deadlocks
}

// checkLevel evaluates pred over the newly admitted states (IDs from
// .. len(states)) in canonical order and turns the first failure into
// a Violation with a crumb-chain witness.
func checkLevel(a ioa.Automaton, states []ioa.State, crumbs []crumb, from int, pred func(ioa.State) bool) *Violation {
	for i := from; i < len(states); i++ {
		if pred(states[i]) {
			continue
		}
		at := func(id store.ID) ioa.State { return states[id] }
		return &Violation{State: states[i], Trace: witnessFromCrumbs(a, at, crumbs, store.ID(i))}
	}
	return nil
}

// witnessFromCrumbs rebuilds the canonical minimal-length execution
// from a start state to target by following parent IDs, reading each
// state on the chain, and only those, from at.
func witnessFromCrumbs(a ioa.Automaton, at func(store.ID) ioa.State, crumbs []crumb, target store.ID) *ioa.Execution {
	var rev []store.ID
	for id := target; ; id = crumbs[id].parent {
		rev = append(rev, id)
		if crumbs[id].parent == store.None {
			break
		}
	}
	x := ioa.NewExecution(a, at(rev[len(rev)-1]))
	for i := len(rev) - 2; i >= 0; i-- {
		x.Append(crumbs[rev[i]].act, at(rev[i]))
	}
	return x
}
