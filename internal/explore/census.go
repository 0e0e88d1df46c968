package explore

// Census: reachability analysis that never materializes the state
// space. Reach returns []ioa.State — fine up to tens of millions of
// states, impossible at 10⁸⁺. Census instead streams the walk and
// returns counts and verdicts, and in its external mode keeps both the
// seen set and the frontier on disk:
//
//   - the frontier is a store.Frontier of canonical encodings
//     (DiskFrontier once spilling is on), drained sequentially and
//     re-expanded through Options.Decode;
//   - successor candidates accumulate in a bounded in-RAM chunk, a
//     store.LevelSet in which a duplicate collapses on arrival, so the
//     budget (Spill.MemBudget, in encoded bytes) buys distinct
//     encodings; each full chunk is batch-interned in the set's Order
//     through Spill.MergeIntern, which resolves the whole chunk against
//     the on-disk runs in one galloping merge (Spill.absent): each run's
//     cursor meets the candidates in increasing order, decoding forward
//     to a candidate in its block or the next and putting one farther
//     on to the run's bloom filter first, seeking only the one block
//     that can hold it;
//   - each fresh state becomes, in the same pass, a member of the new
//     run and an entry of the next level's frontier.
//
// Peak RAM is the chunk plus the per-run bloom filters and sparse
// indexes (about 1.3 + 2 bytes per state at the default block size —
// store.Stats.ResidentBytes reports it, Spill.MemBudget does not bound
// it) plus a read buffer for each of the O(log states) runs compaction
// leaves — this is the path behind the ≥10⁸-state runs in
// EXPERIMENTS.md E23.
//
// Determinism: the walk is single-goroutine and chunk boundaries are a
// pure function of the candidate stream and the budget, so counts,
// depths, and verdicts are exactly those of Reach on the same automaton;
// the dist package's cross-process battery pins the counts against both
// engines. Within a level, visit order follows chunk-then-key order
// (each chunk is interned in key order; chunks flush in discovery
// order), so it moves with MemBudget, as does the run count.
//
// External mode requires Options.Decode because frontier states are
// re-built from their canonical encodings. Systems whose encodings
// are self-describing provide it trivially (ioa.KeyState round-trips
// as its own key; internal/grid decodes digit vectors). Without
// Decode — or without Options.Spill — Census falls back to the
// level-synchronized in-RAM engine and just streams its result.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ioa"
	"repro/internal/store"
)

// Summary is the result of a Census walk.
type Summary struct {
	// States is the number of distinct reachable states admitted.
	States int64
	// Depth is the last completed BFS level (0 when only the start
	// states exist).
	Depth int64
	// Deadlocks counts states with no locally-controlled action
	// enabled.
	Deadlocks int64
	// Violation is the first invariant violation encountered, when a
	// predicate was given. External-mode violations carry the state
	// but no witness trace (no parent links are kept on disk).
	Violation *Violation
}

// Census explores the reachable states of a without materializing
// them, calling visit (when non-nil) on each admitted state and
// checking pred (when non-nil) on each. It stops early at the first
// violation. With Options.Spill and Options.Decode both set it runs
// the external-memory engine documented above; otherwise it streams
// the in-RAM parallel engine's result. Options.Limit bounds admitted
// states in either mode; exceeding it returns ErrLimit with the
// partial summary.
func (e *Engine) Census(ctx context.Context, a ioa.Automaton, pred func(ioa.State) bool, visit func(ioa.State)) (Summary, error) {
	ctx = ctxOr(ctx)
	if e.opts.Spill != nil && e.opts.Decode != nil {
		return e.censusExternal(ctx, a, pred, visit)
	}
	return e.censusMaterialized(ctx, a, pred, visit)
}

// censusMaterialized wraps the level-synchronized engine: same
// depth-then-key visit order as censusExternal, with witness-bearing
// violations. A walk that ran to completion expanded every state, so the
// deadlock count is the one its workers tallied.
func (e *Engine) censusMaterialized(ctx context.Context, a ioa.Automaton, pred func(ioa.State) bool, visit func(ioa.State)) (Summary, error) {
	order, v, depth, deadlocks, err := e.parallelExplore(ctx, a, pred)
	sum := Summary{States: int64(len(order)), Depth: int64(depth), Violation: v}
	if visit != nil {
		for _, s := range order {
			visit(s)
		}
	}
	if err == nil && v == nil {
		sum.Deadlocks = deadlocks
	}
	return sum, err
}

// errCensusStop ends the external walk at the first violation; the
// exit path turns it into a nil error.
var errCensusStop = errors.New("census: stop")

// censusExternal is the disk-backed walk.
func (e *Engine) censusExternal(ctx context.Context, a ioa.Automaton, pred func(ioa.State) bool, visit func(ioa.State)) (sum Summary, err error) {
	o := e.opts.Obs
	if o != nil {
		defer o.Tracer.Span(0, "explore", "census "+a.Name())()
	}
	limit := int64(e.opts.limit())
	decode := e.opts.Decode

	seen, err := store.Open(e.opts.Spill, e.opts.Canon)
	if err != nil {
		return sum, err
	}
	//lint:ignore errflow storage failures surface through sp.Err during the walk; Close here only releases temp files
	defer seen.Close()
	sp := seen.(*store.Spill) // Census routes here only with Spill set
	dir, chunkCap := e.opts.Spill.Dir, e.opts.Spill.MemBudget
	if chunkCap <= 0 {
		chunkCap = store.DefaultSpillBudget
	}

	// Frontier ping-pong: drain cur while pushing the next level into
	// nxt. Frontiers live next to the runs (when a -spill-dir was
	// given) so one directory caps the walk's entire disk footprint.
	var cur, nxt store.Frontier
	if cur, err = store.NewDiskFrontier(dir); err != nil {
		return sum, err
	}
	//lint:ignore errflow frontier Close only removes the temp queue file
	defer cur.Close()
	if nxt, err = store.NewDiskFrontier(dir); err != nil {
		return sum, err
	}
	//lint:ignore errflow frontier Close only removes the temp queue file
	defer nxt.Close()
	rep := reporter{o: o, st: sp, phase: "census"}
	defer func() {
		if err == errCensusStop {
			err = nil
		}
		rep.emit(sum.Depth, sum.States, 0, true)
	}()

	// chunk is the bounded in-RAM candidate set: duplicates collapse as
	// they arrive, so the budget buys distinct encodings.
	var chunk store.LevelSet[struct{}]

	// flushChunk batch-interns the accumulated candidates in key order:
	// fresh states join the next frontier and the new run in one pass.
	// pred/visit run on the decoded fresh states in that order.
	flushChunk := func() error {
		if chunk.Len() == 0 {
			return nil
		}
		_, err := sp.MergeIntern(&chunk.Batch, func(enc []byte, id store.ID) error {
			if sum.States >= limit {
				return errLimit(a, int(limit))
			}
			sum.States++
			if pred != nil || visit != nil {
				s, derr := decode(enc)
				if derr != nil {
					return fmt.Errorf("explore: %s: decode: %w", a.Name(), derr)
				}
				if visit != nil {
					visit(s)
				}
				if pred != nil && !pred(s) {
					sum.Violation = &Violation{State: s}
					return errCensusStop
				}
			}
			return nxt.Push(enc)
		})
		chunk.Reset()
		return err
	}

	// Level 0: the canonically sorted start states.
	var enc []byte
	offer := func(s ioa.State) bool {
		enc = sp.AppendCanonical(enc[:0], s)
		chunk.Add(enc, store.Hash(enc), struct{}{})
		return true
	}
	for _, s := range a.Start() {
		offer(s)
	}
	if err := flushChunk(); err != nil {
		return sum, err
	}
	cur, nxt = nxt, cur

	step := ioa.NewWalk(a, true)
	for depth := int64(1); cur.Len() > 0; depth++ {
		if err := ctx.Err(); err != nil {
			return sum, err
		}
		drained := 0
		err := cur.Drain(func(rec []byte) error {
			drained++
			if drained&63 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			s, derr := decode(rec)
			if derr != nil {
				return fmt.Errorf("explore: %s: decode: %w", a.Name(), derr)
			}
			step.Visit(s, offer)
			if step.Enabled == 0 {
				sum.Deadlocks++
			}
			if chunk.Bytes() >= chunkCap {
				return flushChunk()
			}
			return nil
		})
		if err == nil {
			err = flushChunk()
		}
		if err != nil {
			return sum, err
		}
		if nxt.Len() > 0 {
			sum.Depth = depth
		}
		if o != nil {
			o.Explore.Levels.Add(1)
			o.Explore.Frontier.Observe(int64(cur.Len()))
		}
		rep.emit(depth, sum.States, int64(nxt.Len()), false)
		if err := cur.Reset(); err != nil {
			return sum, err
		}
		cur, nxt = nxt, cur
	}
	return sum, nil
}
