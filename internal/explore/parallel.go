package explore

// Parallel state-space exploration over the interned state store: a
// level-synchronized BFS. Workers steal fixed-size chunks of the
// frontier off a shared cursor, encode and hash each successor once and
// deduplicate it in their own store.LevelSet before they probe the
// store, so duplicates within a level never reach it (delayed duplicate
// detection). At the barrier the coordinator merges the sets and
// appends the level to the store, every encoding known absent, without
// a second lookup. The store is frozen (read-only) during expansion and
// written only between levels by the coordinator — so no two goroutines
// ever write shared state. Which actions a state is stepped by, and in
// which order, is ioa.Walk's decision.
//
// Determinism (DESIGN.md "Exploration engine" has the argument in
// full). Every level is numbered in sequential BFS order: by each new
// state's first discovery, (parent ID, position in the parent's walk).
// By induction over levels the IDs are the sequential kernel's. Level 0
// is the start states in Start's order, first occurrence kept. If level
// d has the sequential IDs, then a worker takes its chunks of it in
// increasing ID order and its set keeps each encoding's first arrival,
// so the set is in (parent, position) order; a parent is expanded by
// exactly one worker, so a state's first discovery is in the set that
// holds it under the least parent; and gather merges the sets by
// parent, dropping an entry whenever another set holds its encoding
// under a smaller one. Level d+1 comes out in first-discovery order —
// the sequential IDs — at any worker count and under any scheduling,
// each state with the (parent ID, action) crumb of its first discovery.
// Under Options.Canon all of this holds of orbits: the representative
// kept is the first-discovered concrete state, as in the sequential
// kernel.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ioa"
	"repro/internal/obs"
	"repro/internal/store"
)

// crumb is the discovery record of one interned state, indexed by its
// dense ID: the (parent ID, action) transition that first reached it.
// Start states carry parent store.None.
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

// member is one state of a merged level: the kept candidate and the
// entry of sets[set] that holds its encoding.
type member struct {
	cand
	set, entry int
}

// levelScratch is what a level is deduplicated in: one set per worker,
// keeping the first arrival per encoding, gather's cursor in each, and
// the merged result. Allocated once per exploration and reset per
// level, it costs memory in proportion to workers × the widest level's
// distinct new states.
type levelScratch struct {
	sets []store.LevelSet[cand]
	pos  []int
	next []member
}

// encoding returns the bytes and hash of a merged member.
func (lv *levelScratch) encoding(m member) ([]byte, uint64) {
	s := &lv.sets[m.set]
	return s.Key(m.entry), s.Hash(m.entry)
}

// parent returns the parent of the next entry gather takes from set wi.
func (lv *levelScratch) parent(wi int) store.ID { return lv.sets[wi].Payload(lv.pos[wi]).parent }

// gather merges the sets into the level's distinct members in
// first-discovery order. Each set is in that order and no parent is in
// two sets, so the merge takes the entries by least parent and drops
// one whose encoding another set holds under a smaller parent. Members
// and their encodings are valid until the sets are reset.
func (lv *levelScratch) gather() []member {
	clear(lv.next)
	lv.next = lv.next[:0]
	clear(lv.pos)
	for {
		least := -1
		for wi := range lv.sets {
			if lv.pos[wi] < lv.sets[wi].Len() && (least < 0 || lv.parent(wi) < lv.parent(least)) {
				least = wi
			}
		}
		if least < 0 {
			return lv.next
		}
		i := lv.pos[least]
		lv.pos[least]++
		if !lv.claimed(least, i) {
			lv.next = append(lv.next, member{cand: lv.sets[least].Payload(i), set: least, entry: i})
		}
	}
}

// claimed reports whether a set other than wi holds the encoding of
// entry i of set wi under a smaller parent: that set found it first.
func (lv *levelScratch) claimed(wi, i int) bool {
	enc, h, p := lv.sets[wi].Key(i), lv.sets[wi].Hash(i), lv.sets[wi].Payload(i).parent
	for wj := range lv.sets {
		if wj == wi {
			continue
		}
		if j, ok := lv.sets[wj].Lookup(enc, h); ok && lv.sets[wj].Payload(j).parent < p {
			return true
		}
	}
	return false
}

// parallelExplore is the shared engine under the parallel Reach and
// CheckInvariant paths. When pred is non-nil it is evaluated on every
// level in ID order and the first failing state is returned as a
// Violation with a witness built from the crumb chain. Cancellation is
// checked at level granularity.
func (e *Engine) parallelExplore(ctx context.Context, a ioa.Automaton, pred func(ioa.State) bool) (states []ioa.State, v *Violation, err error) {
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
		return nil, nil, err
	}
	//lint:ignore errflow storage failures surface through the sticky Err checks; Close here only releases temp files
	defer gst.Close()
	// states is indexed by ID and is also the returned order.
	maxDepth := 0 // the last completed BFS level
	rep := reporter{o: o, st: gst, phase: "explore"}
	defer func() { rep.emit(int64(maxDepth), int64(len(states)), 0, true) }()
	var crumbs []crumb // indexed by ID; kept only under a predicate
	// One probe and one Walk per worker, for the whole run.
	probes := make([]store.MemberProbe, w)
	steps := make([]*ioa.Walk, w)
	for i := range probes {
		probes[i] = gst.Probe()
		steps[i] = ioa.NewWalk(a)
	}

	lv := &levelScratch{sets: make([]store.LevelSet[cand], w), pos: make([]int, w)}
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

	// Level 0: the start states, deduplicated and interned like any
	// level but, as in the sequential explorer, regardless of the limit.
	var enc []byte
	for _, s := range a.Start() {
		enc = gst.AppendCanonical(enc[:0], s)
		lv.sets[0].Add(enc, store.Hash(enc), cand{state: s, parent: store.None})
	}
	admit(lv.gather())
	if err := gst.Err(); err != nil {
		return nil, nil, seenErr(a, err)
	}
	if pred != nil {
		if v := checkLevel(a, states, crumbs, 0, pred); v != nil {
			return states, v, nil
		}
		if len(states) >= limit {
			return states, nil, errLimit(a, limit)
		}
	}

	for depth, from := 1, 0; from < len(states); depth++ {
		if err := ctx.Err(); err != nil {
			return states, nil, err
		}
		levelStart := o.Now()
		frontier := len(states) - from
		next := expandLevel(a, gst, lv, states, from, probes, steps, depth, o)
		if err := gst.Err(); err != nil {
			// A worker's probe latched a storage failure during the
			// frozen phase: the candidate set may be incomplete, so the
			// level is abandoned.
			return states, nil, seenErr(a, err)
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
			return states, nil, errLimit(a, limit)
		}
		over := len(next) > room
		if over {
			next = next[:room]
		}
		maxDepth = depth
		from = len(states)
		admit(next)
		if err := gst.Err(); err != nil {
			return states[:from], nil, seenErr(a, err)
		}
		rep.emit(int64(depth), int64(len(states)), int64(len(states)-from), false)
		if pred != nil {
			if v := checkLevel(a, states, crumbs, from, pred); v != nil {
				return states, v, nil
			}
		}
		// With a predicate, mirror CheckInvariant's stricter budget
		// check: it errors once the node store is full even when the
		// frontier is about to empty.
		if over || (pred != nil && len(states) >= limit) {
			return states, nil, errLimit(a, limit)
		}
	}
	return states, nil, nil
}

// expandLevel computes the undiscovered successors of the frontier
// states[from:], deduplicated (first discovery per state) and in
// first-discovery order, ready for the coordinator to intern. The store
// is frozen meanwhile; a worker asks it only about successors its own
// set lacks, a hit there being a duplicate the store cannot hold.
func expandLevel(a ioa.Automaton, seen store.SeenSet, lv *levelScratch, states []ioa.State, from int,
	probes []store.MemberProbe, steps []*ioa.Walk, depth int, o *obs.Obs) []member {
	var cursor int64
	const chunk = 16
	var wg sync.WaitGroup
	for wi := range probes {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			lv.sets[wi].Reset()
			// The per-worker tally is a plain local (register
			// increments), flushed to the sharded counter once per
			// level — so the disabled path stays metric-free and the
			// enabled path stays contention-free.
			var emitted int64
			workStart := o.Now()
			probe, step, set := probes[wi], steps[wi], &lv.sets[wi]
			var curParent store.ID
			var enc []byte
			yield := func(nxt ioa.State) bool {
				enc = seen.AppendCanonical(enc[:0], nxt)
				h := store.Hash(enc)
				if _, ok := set.Lookup(enc, h); ok {
					emitted++
				} else if _, ok := probe.Lookup(enc, h); !ok {
					emitted++
					set.AddNew(enc, h, cand{state: ioa.Keep(nxt), parent: curParent, act: step.Act})
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
				}
			}
			if o != nil {
				o.Explore.Successors.AddShard(wi, emitted)
				o.Tracer.Complete(wi+1, "explore", "expand", workStart,
					map[string]any{"level": depth, "emitted": emitted})
			}
		}(wi)
	}
	wg.Wait()
	return lv.gather()
}

// checkLevel evaluates pred over the newly admitted states (IDs from
// .. len(states)) in ID order and turns the first failure into
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

// witnessFromCrumbs rebuilds the minimal-length execution
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
