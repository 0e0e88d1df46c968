package explore

// Parallel sharded state-space exploration over the interned state
// store. The engine runs a level-synchronized BFS: each level's
// frontier is expanded by a pool of workers that steal fixed-size
// chunks of the frontier off a shared cursor, successors are routed to
// per-(worker, shard) outboxes, and at the level barrier each shard's
// owner merges its inbox, deduplicating within the level. The store is
// frozen (read-only, probed through per-worker store.Probes) during
// expansion and written only between levels by the coordinator, which
// interns each new level in canonical key-sorted order — so no two
// goroutines ever write shared state, and dense IDs replace the seed's
// per-shard map[string] seen maps, parent-key strings, and witness
// reconstruction keys.
//
// Determinism argument. The set of states discovered at depth d is a
// pure function of the set at depths < d — it does not depend on which
// worker expanded which state, because membership is decided against a
// store that is frozen during expansion and written only at the
// barrier. Each level is canonically sorted by key before it is
// interned and appended to the result, so Reach returns a
// bit-identical slice on every run with any worker count: all states
// of depth d, ordered by key, preceded by all states of smaller depth.
// Witness parents are also canonical: when several transitions
// discover the same state in one level, the merge keeps the least
// (parent ID, action) pair. That coincides with the seed's least
// (parent key, action) rule because every candidate parent of a
// depth-d state lies in the depth-(d-1) frontier, and within one level
// ID order equals key order by the sorted-interning invariant.
//
// Where the sequential explorer probes successors for every action π
// of the signature, the engine expands only Enabled(s) plus the input
// actions. This is exact for I/O automata: inputs are enabled in every
// state (the input-enabledness axiom, §2.1), and a locally-controlled
// action outside Enabled(s) has no step from s. It turns the per-state
// cost from |acts(A)| guard evaluations into |enabled(s)| + |in(A)|,
// which the composition memo layer makes mostly cache hits; the
// differential test battery checks the resulting state sets against
// the sequential sweep on every seed.
//
// Symmetry reduction (Options.Canon) preserves the argument: membership
// and merge dedup run on canonical bytes, so the set of orbits
// discovered at depth d is still a pure function of the orbits at
// depths < d, and candLess picks a scheduling-independent concrete
// representative per orbit.

import (
	"bytes"
	"context"
	"fmt"
	"sort"
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

// cand is one candidate new state found during a level expansion,
// before merge-time deduplication. hash is the FNV-64a of the state's
// encoding, computed by the worker's probe and reused for shard
// routing and merge bucketing.
type cand struct {
	state  ioa.State
	parent store.ID
	act    ioa.Action
	hash   uint64
}

// candLess orders candidate crumbs for the same stored state: least
// (state key, parent, act) wins, making both the kept concrete
// representative and its witness crumb deterministic. Without a
// canonicalizer, merged candidates are byte-identical states, the key
// comparison ties, and the rule degenerates to the seed's least
// (parent, act); under symmetry quotienting, candidates in one merge
// bucket are orbit-mates whose concrete states may differ, and the
// least key picks the same representative regardless of worker
// scheduling — with the crumb that actually produced that concrete
// state, so witnesses remain genuine executions. parent IDs are
// comparable as keys because all candidates' parents sit in the same
// (key-sorted-interned) level.
func candLess(a, b cand) bool {
	if ak, bk := a.state.Key(), b.state.Key(); ak != bk {
		return ak < bk
	}
	if a.parent != b.parent {
		return a.parent < b.parent
	}
	return a.act < b.act
}

func sortCandsByKey(cands []cand) {
	// A tuple builds its key on the first Key() and caches it, so each
	// candidate is encoded to a string once however often the sort
	// compares it; the other state kinds hold their key as a field.
	sort.Slice(cands, func(i, j int) bool { return cands[i].state.Key() < cands[j].state.Key() })
}

// parallelExplore is the shared engine under the parallel Reach and
// CheckInvariant paths. When pred is non-nil it is evaluated on every
// level in canonical order and the first failing state is returned as
// a Violation with a witness built from the canonical crumb chain.
// Cancellation is checked at level granularity.
func (e *Engine) parallelExplore(ctx context.Context, a ioa.Automaton, pred func(ioa.State) bool) (states []ioa.State, v *Violation, maxDepth int, err error) {
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
		return nil, nil, 0, err
	}
	//lint:ignore errflow storage failures surface through the sticky Err checks; Close here only releases temp files
	defer gst.Close()
	// states is indexed by ID and is also the returned order; maxDepth
	// is the last completed BFS level.
	rep := reporter{o: o, st: gst, phase: "explore"}
	defer func() { rep.emit(int64(maxDepth), int64(len(states)), 0, true) }()
	var crumbs []crumb // indexed by ID; kept only under a predicate
	// One probe and one Step per worker, for the whole run.
	probes := make([]store.MemberProbe, w)
	steps := make([]*Step, w)
	for i := range probes {
		probes[i] = gst.Probe()
		steps[i] = NewStep(a, false)
	}

	// Level 0: the start states, canonically sorted then interned in
	// that order (deduplicating), establishing the ID-order-equals-
	// key-order-within-a-level invariant the determinism argument
	// needs. Like the sequential explorer, starts are admitted
	// regardless of the limit.
	starts := append([]ioa.State(nil), a.Start()...)
	sortStatesByKey(starts)
	var level []store.ID
	for _, s := range starts {
		if id, fresh := gst.Intern(s); fresh {
			states = append(states, s)
			if pred != nil {
				crumbs = append(crumbs, crumb{parent: store.None})
			}
			level = append(level, id)
		}
	}
	if err := gst.Err(); err != nil {
		return nil, nil, 0, seenErr(a, err)
	}
	if pred != nil {
		if v := checkLevel(a, states, crumbs, 0, pred); v != nil {
			return states, v, maxDepth, nil
		}
		if len(states) >= limit {
			return states, nil, maxDepth, errLimit(a, limit)
		}
	}

	for depth := 1; len(level) > 0; depth++ {
		if err := ctx.Err(); err != nil {
			return states, nil, maxDepth, err
		}
		levelStart := o.Now()
		next := expandLevel(a, gst, states, level, probes, steps, depth, o)
		if err := gst.Err(); err != nil {
			// A worker's probe latched a storage failure during the
			// frozen phase: the candidate set may be incomplete, so the
			// level is abandoned.
			return states, nil, maxDepth, seenErr(a, err)
		}
		if o != nil {
			o.Explore.Levels.Add(1)
			o.Explore.Frontier.Observe(int64(len(level)))
			o.Explore.LevelNS.Observe(o.Now().Sub(levelStart).Nanoseconds())
			o.Tracer.Complete(0, "explore", fmt.Sprintf("level %d", depth), levelStart,
				map[string]any{"frontier": len(level), "new": len(next)})
			o.Tracer.CounterEvent(0, "memo", o.Memo.Values())
		}
		if len(next) == 0 {
			break
		}
		room := limit - len(states)
		if room <= 0 {
			// An unseen state exists beyond a full budget: the
			// sequential contract returns the partial result as-is.
			return states, nil, maxDepth, errLimit(a, limit)
		}
		over := len(next) > room
		if over {
			next = next[:room]
		}
		maxDepth = depth
		from := len(states)
		level = level[:0]
		for _, c := range next {
			id, _ := gst.Intern(c.state)
			states = append(states, c.state)
			if pred != nil {
				crumbs = append(crumbs, crumb{parent: c.parent, act: c.act})
			}
			level = append(level, id)
		}
		if err := gst.Err(); err != nil {
			return states[:from], nil, maxDepth, seenErr(a, err)
		}
		rep.emit(int64(depth), int64(len(states)), int64(len(level)), false)
		if pred != nil {
			if v := checkLevel(a, states, crumbs, from, pred); v != nil {
				return states, v, maxDepth, nil
			}
		}
		// With a predicate, mirror CheckInvariant's stricter budget
		// check: it errors once the node store is full even when the
		// frontier is about to empty.
		if over || (pred != nil && len(states) >= limit) {
			return states, nil, maxDepth, errLimit(a, limit)
		}
	}
	return states, nil, maxDepth, nil
}

// expandLevel computes the candidate set of undiscovered successors of
// level and returns it deduplicated (canonical least crumb per state)
// and sorted by key, ready for the coordinator to intern in order.
// During expansion the store is frozen, so workers probe it freely
// through their per-worker probes; merge-time dedup runs one goroutine
// per shard over hash-routed outboxes, comparing encodings byte-wise
// against a per-shard scratch arena (hashes route, bytes decide).
func expandLevel(a ioa.Automaton, gst store.SeenSet, states []ioa.State, level []store.ID,
	probes []store.MemberProbe, steps []*Step, depth int, o *obs.Obs) []cand {
	w := len(probes)
	// outboxes[worker][shard] holds candidate crumbs.
	outboxes := make([][][]cand, w)
	var cursor int64
	const chunk = 16
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			// The per-worker tally is a plain local (register
			// increments), flushed to the sharded counter once per
			// level — so the disabled path stays metric-free and the
			// enabled path stays contention-free.
			var emitted int64
			workStart := o.Now()
			probe, step := probes[wi], steps[wi]
			buckets := make([][]cand, w)
			var curParent store.ID
			yield := func(nxt ioa.State) bool {
				if _, h, ok := probe.Lookup(nxt); !ok {
					emitted++
					sh := int(h % uint64(w))
					buckets[sh] = append(buckets[sh], cand{state: nxt, parent: curParent, act: step.Act, hash: h})
				}
				return true
			}
			for {
				start := int(atomic.AddInt64(&cursor, chunk)) - chunk
				if start >= len(level) {
					break
				}
				end := start + chunk
				if end > len(level) {
					end = len(level)
				}
				for _, id := range level[start:end] {
					curParent = id
					step.Visit(states[id], yield)
				}
			}
			outboxes[wi] = buckets
			if o != nil {
				o.Explore.Successors.AddShard(wi, emitted)
				o.Tracer.Complete(wi+1, "explore", "expand", workStart,
					map[string]any{"level": depth, "emitted": emitted})
			}
		}(wi)
	}
	wg.Wait()

	// Per-shard merge: each shard's owner drains every worker's
	// outbox for that shard, keeping the canonical (least) crumb per
	// newly discovered state.
	merged := make([][]cand, w)
	for h := 0; h < w; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			var cands []cand
			pending := make(map[uint64][]int) // hash -> indices into cands
			var arena []byte
			var locs [][2]int // per-cand [offset, length] into arena
			var buf []byte
			for wi := 0; wi < w; wi++ {
				for _, c := range outboxes[wi][h] {
					// Dedup on canonical bytes: under symmetry
					// quotienting, orbit-mates discovered by different
					// workers must collapse here — the coordinator's
					// intern loop assumes every merged candidate is
					// fresh and distinct.
					buf = gst.AppendCanonical(buf[:0], c.state)
					dup := false
					for _, ci := range pending[c.hash] {
						l := locs[ci]
						if bytes.Equal(arena[l[0]:l[0]+l[1]], buf) {
							if candLess(c, cands[ci]) {
								cands[ci] = c
							}
							dup = true
							break
						}
					}
					if dup {
						continue
					}
					pending[c.hash] = append(pending[c.hash], len(cands))
					locs = append(locs, [2]int{len(arena), len(buf)})
					arena = append(arena, buf...)
					cands = append(cands, c)
				}
			}
			merged[h] = cands
		}(h)
	}
	wg.Wait()

	var next []cand
	for h := 0; h < w; h++ {
		next = append(next, merged[h]...)
	}
	sortCandsByKey(next)
	return next
}

// checkLevel evaluates pred over the newly admitted states (IDs from
// .. len(states)) in canonical order and turns the first failure into
// a Violation with a crumb-chain witness.
func checkLevel(a ioa.Automaton, states []ioa.State, crumbs []crumb, from int, pred func(ioa.State) bool) *Violation {
	for i := from; i < len(states); i++ {
		if pred(states[i]) {
			continue
		}
		return &Violation{State: states[i], Trace: witnessFromCrumbs(a, states, crumbs, store.ID(i))}
	}
	return nil
}

// witnessFromCrumbs rebuilds the canonical minimal-length execution
// from a start state to target by following parent IDs.
func witnessFromCrumbs(a ioa.Automaton, states []ioa.State, crumbs []crumb, target store.ID) *ioa.Execution {
	var rev []store.ID
	for id := target; ; id = crumbs[id].parent {
		rev = append(rev, id)
		if crumbs[id].parent == store.None {
			break
		}
	}
	x := ioa.NewExecution(a, states[rev[len(rev)-1]])
	for i := len(rev) - 2; i >= 0; i-- {
		x.Append(crumbs[rev[i]].act, states[rev[i]])
	}
	return x
}
