// Package cluster shards the seen set of a state-space exploration
// across OS processes over localhost TCP: ioasim -dist-listen runs the
// coordinator, ioasim -dist-join runs a worker, and the reachable set
// is partitioned by store.Hash of each state's canonical encoding
// modulo the process count. The hash is unspecified beyond being the
// same function within one binary, so all ranks of one run must be the
// same build (-dist-spawn forks the coordinator's own executable); a
// rank built from other source would disagree on owners, and the
// receiving shard's check aborts the run.
//
// The protocol is level-synchronized BFS in which the coordinator
// expands and the workers deduplicate:
//
//  1. The coordinator expands the level's frontier, in order, with
//     ioa.Walk into one store.LevelSet per owner, Hash(enc) mod procs —
//     each canonical encoding once, with the first concrete state that
//     produced it — noting each new (owner, entry) in the order it found
//     them, and sends each owner its set in insertion order.
//  2. Each worker interns what arrives, in arrival order, into its shard
//     of the seen set and replies with the indices of the fresh
//     encodings and its shard size.
//  3. The coordinator's next frontier is its noted list filtered by the
//     fresh replies — sequential BFS order, as the in-process engines
//     number states. It checks the invariant and the limit, and sends
//     the next level or stops.
//
// Only canonical encodings cross the wire, and only the coordinator
// holds concrete states, so any automaton the in-process engines can
// explore (composed tuples included) can be explored by a cluster, with
// no Decode hook, and a worker needs no Build hook. The encoding is
// ioa.Encoder's, the one the in-process kernel interns: for a
// composition its leaves' cell indices. Those indices mean something
// only to the coordinator's automaton, but only the coordinator encodes
// and nothing decodes: workers hash and compare the bytes, so no
// dictionary crosses the wire.
//
// Determinism: an owner's shard is a set of canonical encodings, and
// the set admitted at each level is a pure function of the previous
// levels' global set — independent of process count and network
// interleaving. By induction over levels each frontier is in sequential
// BFS order: the one expanding goroutine finds the new states of a level
// in (parent, walk position) order, and the noted list keeps each
// encoding's first discovery. State counts, depths, verdicts and the
// violating state are therefore bit-identical at any -dist-workers
// value, and identical to the in-process engines; the battery in
// cluster_test.go pins them against each other.
//
// Every received encoding is verified to belong to the receiving
// worker's shard; a corrupted shard assignment (the -dist-corrupt test
// hook, or a real bug) aborts the whole cluster rather than silently
// double-counting. So does a frame whose rank, offset or index points
// outside what it may index, on either end: the wire is outside input.
//
// Deadlock freedom: each connection has one writer, the coordinator's
// level loop, and one reader goroutine that forwards every frame to
// that loop. A worker reads a whole level's batch before it writes
// anything, and the coordinator drains every worker through its reader
// goroutine, so no write can wait on a write: the coordinator's writes
// to a worker complete because that worker is reading, and a worker's
// replies complete because its reader drains them. Frames hold at most
// batchChunk encodings or indices, so none holds a whole level.
package cluster

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"syscall"
	"time"

	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/testseed"
)

// Config parameterizes both coordinator and workers.
type Config struct {
	// Addr is the coordinator's TCP listen address (Coordinate) or
	// dial target (Work).
	Addr string
	// Procs is the worker-process count the coordinator waits for.
	// Workers learn it from their welcome message.
	Procs int
	// Build constructs the automaton the coordinator explores. Workers
	// do not use it: they store encodings, never states.
	Build func() (ioa.Automaton, error)
	// Limit bounds the global admitted-state count; 0 means no bound.
	Limit int64
	// Pred, when non-nil, is the invariant the coordinator checks on
	// every admitted state.
	Pred func(ioa.State) bool
	// Spill, when non-nil, backs each worker's shard of the seen set
	// with the disk-spilling store.
	Spill *store.SpillOptions
	// Canon optionally canonicalizes the coordinator's encodings
	// (symmetry quotient).
	Canon explore.Canonicalizer
	// Listener, when non-nil, is a pre-bound coordinator listener;
	// Coordinate takes ownership of it and ignores Addr. Callers bind
	// it themselves to listen on an ephemeral port (":0") and learn
	// the real address before spawning workers.
	Listener net.Listener
	// Obs, when non-nil on the coordinator, receives cluster-wide
	// progress: dist.* metrics and per-level Progress snapshots.
	Obs *obs.Obs
	// CorruptShard is the must-fail test hook: the worker misreads its
	// own rank as (rank+1) mod Procs, so its shard check refuses what it
	// is sent.
	CorruptShard bool
}

// Result is the coordinator's cluster-wide summary.
type Result struct {
	// States is the global admitted-state count (sum of shard sizes).
	States int64
	// Depth is the last completed BFS level.
	Depth int64
	// Procs is the worker-process count.
	Procs int
	// PerRank is each rank's shard size (balance check).
	PerRank []int64
	// Violation is the key of the first violating state in BFS order —
	// the state explore's CheckInvariant reports — "" when the invariant
	// held.
	Violation string
	// BarrierWaitNS is the total time workers spent waiting for their
	// level's candidates, summed across ranks.
	BarrierWaitNS int64
}

// Verdict renders the invariant verdict ("ok" / "fail <key>", the key
// quoted: state keys may be raw bytes).
func (r Result) Verdict() string {
	if r.Violation == "" {
		return "ok"
	}
	return fmt.Sprintf("fail %q", r.Violation)
}

// ErrLimit is returned (wrapped) by Coordinate when the global
// admitted-state count exceeds Config.Limit. It is explore.ErrLimit —
// one sentinel for every engine — kept under this name as an alias.
var ErrLimit = explore.ErrLimit

// Message kinds. One envelope struct keeps gob registration trivial.
const (
	kWelcome = iota + 1 // coordinator → worker: rank assignment
	kBatch              // coordinator → worker: candidate encodings, discovery order
	kEnd                // coordinator → worker: the level's batch is complete
	kReply              // worker → coordinator: fresh indices into the batch
	kLevel              // worker → coordinator: shard stats, ending the replies
	kStop               // coordinator → workers: finished, or aborted with Err
	kFail               // worker → coordinator: abort with error
)

// batchChunk caps the encodings per kBatch message and the indices per
// kReply, so no gob allocation ever holds a whole level. A var only so
// tests can shrink it to force multi-chunk reassembly on small systems.
var batchChunk = 4096

// msg is the single wire envelope; the meaningful fields depend on
// Kind. It names no sender: the coordinator attributes each frame to
// the connection it arrived on.
type msg struct {
	Kind int

	Rank  int      // kWelcome
	Procs int      // kWelcome
	Base  int32    // kBatch: index of Encs[0] within the level's batch
	Encs  [][]byte // kBatch: distinct candidate encodings, discovery order
	Win   []int32  // kReply: indices of the fresh encodings, ascending

	Owned     int64 // kLevel: the worker's shard size
	BarrierNS int64 // kLevel: time spent waiting for this level's batch

	Err string // kStop, kFail
}

// event is one frame a reader goroutine forwards, or its read error,
// tagged with the rank of the connection it arrived on.
type event struct {
	rank int
	m    msg
	err  error
}

// Coordinate listens on cfg.Addr, waits for cfg.Procs workers, then
// builds the automaton and runs every level's expansion itself, the
// workers holding the seen set. It returns the cluster-wide result.
func Coordinate(ctx context.Context, cfg Config) (Result, error) {
	var res Result
	if cfg.Procs < 1 {
		return res, fmt.Errorf("cluster: need at least 1 worker, got %d", cfg.Procs)
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			return res, fmt.Errorf("cluster: listen: %w", err)
		}
	}
	defer ln.Close()

	// Cancellation: closing the listener/conns unblocks Accept, the
	// readers and the writes. The accept loop stores a connection only
	// under mu and while not stopped, so the sweep below sees every
	// connection stored and the loop closes any it accepts after the
	// sweep.
	conns := make([]net.Conn, cfg.Procs)
	var mu sync.Mutex
	stopped := false
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
		case <-done:
		}
		ln.Close()
		mu.Lock()
		stopped = true
		mu.Unlock()
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()

	encs := make([]*gob.Encoder, cfg.Procs)
	for rank := range conns {
		conn, err := ln.Accept()
		if err != nil {
			return res, ctxErr(ctx, fmt.Errorf("cluster: accept: %w", err))
		}
		mu.Lock()
		if stopped {
			mu.Unlock()
			conn.Close()
			return res, ctx.Err() // only a cancel stops the sweep this early
		}
		conns[rank] = conn
		mu.Unlock()
		encs[rank] = gob.NewEncoder(conn)
		if err := encs[rank].Encode(msg{Kind: kWelcome, Rank: rank, Procs: cfg.Procs}); err != nil {
			return res, ctxErr(ctx, fmt.Errorf("cluster: welcome rank %d: %w", rank, err))
		}
	}

	// Once the level loop is done the readers discard, so a worker still
	// writing replies finishes and reads its stop.
	events := make(chan event, 4*cfg.Procs)
	quit := make(chan struct{})
	for rank, conn := range conns {
		go func() {
			dec := gob.NewDecoder(conn)
			for {
				ev := event{rank: rank}
				ev.err = dec.Decode(&ev.m)
				select {
				case events <- ev:
				case <-quit:
				}
				if ev.err != nil {
					return
				}
			}
		}()
	}

	o := cfg.Obs
	if o != nil {
		o.Dist.Procs.Set(int64(cfg.Procs))
		// Every exit of the level loop — completion, violation, limit,
		// abort — reports exactly one Done snapshot.
		defer func() {
			o.EmitProgress(obs.Progress{
				Phase:         "dist",
				Depth:         res.Depth,
				States:        res.States,
				BarrierWaitNS: res.BarrierWaitNS,
				Done:          true,
			})
		}()
	}
	res.Procs = cfg.Procs
	res.PerRank = make([]int64, cfg.Procs)
	err := lead(ctx, cfg, encs, events, &res)
	close(quit)
	stop := msg{Kind: kStop}
	if err != nil {
		stop.Err = err.Error()
	}
	for _, enc := range encs {
		//lint:ignore errflow a worker that hung up needs no stop; the run's own error wins
		enc.Encode(stop)
	}
	return res, err
}

// lead is the coordinator's level loop: expand the frontier, send each
// worker its candidates, read back the fresh indices and build the
// next frontier from them. It fills res as levels complete.
func lead(ctx context.Context, cfg Config, encs []*gob.Encoder, events <-chan event, res *Result) error {
	if cfg.Build == nil {
		return errors.New("cluster: coordinator needs a Build hook")
	}
	a, err := cfg.Build()
	if err != nil {
		return fmt.Errorf("cluster: build: %w", err)
	}
	procs := len(encs)

	// next returns the next frame a worker sent, or why the run stops: a
	// cancel, a failed read, or the worker's own failure report.
	next := func() (event, error) {
		select {
		case <-ctx.Done():
			return event{}, ctx.Err()
		case ev := <-events:
			if ev.err != nil {
				return ev, ctxErr(ctx, fmt.Errorf("cluster: read rank %d: %w", ev.rank, ev.err))
			}
			if ev.m.Kind == kFail {
				return ev, fmt.Errorf("cluster: rank %d failed: %s", ev.rank, ev.m.Err)
			}
			return ev, nil
		}
	}
	// send writes one frame to a worker. A write fails only once the
	// worker has hung up, and its reader then reports why.
	send := func(rank int, m msg) error {
		if encs[rank].Encode(m) == nil {
			return nil
		}
		for {
			if _, err := next(); err != nil {
				return err
			}
		}
	}

	// out[r] is what this level sends rank r: each canonical encoding
	// once, with the first concrete state that produced it. found notes
	// each entry the sets gain, in the order the one expanding goroutine
	// found them.
	type entry struct{ rank, i int }
	out := make([]store.LevelSet[ioa.State], procs)
	var found []entry
	var enc []byte
	encode := ioa.Encoder(a)
	offer := func(s ioa.State) bool {
		c := s
		if cfg.Canon != nil {
			c = cfg.Canon.Canonical(s)
		}
		enc = encode(enc[:0], c)
		h := store.Hash(enc)
		r := int(h % uint64(procs))
		// s is borrowed from the walk: keep the one the set keeps.
		if kept := out[r].Add(enc, h, s); kept != nil {
			*kept = ioa.Keep(s)
			found = append(found, entry{r, out[r].Len() - 1})
		}
		return true
	}
	for _, s := range a.Start() {
		offer(s)
	}

	step := ioa.NewWalk(a)
	wins := make([][]int32, procs)
	taken := make([]int, procs)
	reported := make([]bool, procs)
	views := make([][]byte, 0, batchChunk)
	var frontier []ioa.State
	o := cfg.Obs
	for level := int64(0); ; level++ {
		// Send each worker its candidates in insertion order, as views
		// into the set's arena.
		var sent int64
		for r := range encs {
			n := out[r].Len()
			sent += int64(n)
			for base := 0; base < n; base += batchChunk {
				views = views[:0]
				for i := base; i < min(base+batchChunk, n); i++ {
					views = append(views, out[r].Key(i))
				}
				if err := send(r, msg{Kind: kBatch, Base: int32(base), Encs: views}); err != nil {
					return err
				}
			}
			if err := send(r, msg{Kind: kEnd}); err != nil {
				return err
			}
		}

		// Read back each worker's fresh indices, then its stats. Every
		// index must point past the one before it and into the batch that
		// worker was sent.
		for r := range wins {
			wins[r], reported[r] = wins[r][:0], false
		}
		for left := procs; left > 0; {
			ev, err := next()
			if err != nil {
				return err
			}
			r, m := ev.rank, ev.m
			switch {
			case reported[r] || m.Kind != kReply && m.Kind != kLevel:
				return fmt.Errorf("cluster: protocol: rank %d sent kind %d out of turn", r, m.Kind)
			case m.Kind == kReply:
				for _, idx := range m.Win {
					last := int32(-1)
					if n := len(wins[r]); n > 0 {
						last = wins[r][n-1]
					}
					if idx <= last || int(idx) >= out[r].Len() {
						return fmt.Errorf("cluster: protocol: rank %d replied Win index %d after %d, sent it %d candidates", r, idx, last, out[r].Len())
					}
					wins[r] = append(wins[r], idx)
				}
			default:
				reported[r] = true
				left--
				res.PerRank[r] = m.Owned
				res.BarrierWaitNS += m.BarrierNS
				if o != nil {
					o.Dist.ShardStates(r, m.Owned)
					o.Dist.BarrierWaitNS.Add(m.BarrierNS)
				}
			}
		}

		// The next frontier is the fresh states in the order they were
		// found. A rank's entries were found in increasing index order, as
		// its Win indices ascend, so taken[r] of them are matched so far.
		frontier = frontier[:0]
		violation := ""
		clear(taken)
		for _, f := range found {
			if k := taken[f.rank]; k == len(wins[f.rank]) || int(wins[f.rank][k]) != f.i {
				continue
			}
			taken[f.rank]++
			s := out[f.rank].Payload(f.i)
			if cfg.Pred != nil && violation == "" && !cfg.Pred(s) {
				violation = s.Key()
			}
			frontier = append(frontier, s)
		}
		res.States = 0
		for _, n := range res.PerRank {
			res.States += n
		}
		if len(frontier) > 0 && level > 0 {
			res.Depth = level
		}
		if o != nil {
			o.Dist.Levels.Add(1)
			o.Dist.SentEncs.Add(sent)
			o.EmitProgress(obs.Progress{
				Phase:         "dist",
				Depth:         level,
				States:        res.States,
				Frontier:      int64(len(frontier)),
				BarrierWaitNS: res.BarrierWaitNS,
				Done:          false,
			})
		}
		if violation != "" {
			res.Violation = violation
			return nil
		}
		if cfg.Limit > 0 && res.States > cfg.Limit {
			return fmt.Errorf("%w: %d states, limit %d", ErrLimit, res.States, cfg.Limit)
		}
		if len(frontier) == 0 {
			return nil
		}
		for r := range out {
			out[r].Reset()
		}
		found = found[:0]
		for _, s := range frontier {
			step.Visit(s, offer)
		}
	}
}

// dialRetry dials the coordinator, retrying refused connections for a
// bounded window. A separate probe connection would consume one of the
// coordinator's ranked Accept slots, so the retried dial must be the
// real connection.
func dialRetry(ctx context.Context, addr string) (net.Conn, error) {
	var err error
	for try := 0; try < 100; try++ {
		var conn net.Conn
		conn, err = net.Dial("tcp", addr)
		if err == nil {
			return conn, nil
		}
		if !errors.Is(err, syscall.ECONNREFUSED) {
			break
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
	return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
}

// ctxErr prefers the context's error when it fired.
func ctxErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// Work dials the coordinator at cfg.Addr and serves this process's
// shard of the seen set until the cluster finishes. The error is nil
// iff the whole cluster completed cleanly. Refused dials are retried for
// a bounded window, since hand-started workers race the coordinator's
// bind; the retry wraps only the dial, never the exploration. Of cfg a
// worker reads only Addr, Spill and CorruptShard.
//
// Memory: a worker holds its shard of the seen set and one frame; the
// level's candidates and their concrete states live at the coordinator
// (DESIGN.md "Coordinator memory bound").
func Work(ctx context.Context, cfg Config) error {
	conn, err := dialRetry(ctx, cfg.Addr)
	if err != nil {
		return ctxErr(ctx, err)
	}
	return work(ctx, conn, cfg)
}

// work is Work on an established connection, which it closes.
func work(ctx context.Context, conn net.Conn, cfg Config) error {
	defer conn.Close()
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-done:
		}
	}()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)

	var welcome msg
	if err := dec.Decode(&welcome); err != nil {
		return ctxErr(ctx, fmt.Errorf("cluster: welcome: %w", err))
	}
	if welcome.Kind != kWelcome {
		return fmt.Errorf("cluster: protocol: first message kind %d", welcome.Kind)
	}
	rank, procs := welcome.Rank, welcome.Procs
	if procs < 1 || rank < 0 || rank >= procs {
		return fmt.Errorf("cluster: protocol: welcome assigns rank %d of %d", rank, procs)
	}
	var seen store.SeenSet = store.New(store.Options{})
	if cfg.Spill != nil {
		sp, err := store.NewSpill(*cfg.Spill)
		if err != nil {
			return fmt.Errorf("cluster: rank %d: %w", rank, err)
		}
		seen = sp
	}
	//lint:ignore errflow storage failures already aborted the level loop; Close here only releases temp files
	defer seen.Close()

	fail := func(err error) error {
		//lint:ignore errflow the primary error wins; the coordinator also notices the closed conn
		enc.Encode(msg{Kind: kFail, Err: err.Error()})
		return err
	}
	// mine is the shard this worker believes it holds.
	mine := uint64(rank)
	if cfg.CorruptShard {
		mine = uint64(rank+1) % uint64(procs)
	}

	var wins []int32
	for {
		// Intern the level's batch as it arrives, in the coordinator's
		// discovery order.
		wins = wins[:0]
		var n int32
		var waitNS int64
	batch:
		for {
			start := testseed.Now()
			var m msg
			if err := dec.Decode(&m); err != nil {
				return ctxErr(ctx, fmt.Errorf("cluster: rank %d: read: %w", rank, err))
			}
			waitNS += testseed.Now().Sub(start).Nanoseconds()
			switch m.Kind {
			case kBatch:
			case kEnd:
				break batch
			case kStop:
				if m.Err != "" {
					return fmt.Errorf("cluster: rank %d: coordinator aborted: %s", rank, m.Err)
				}
				return nil
			default:
				return fail(fmt.Errorf("cluster: rank %d: protocol: kind %d while reading a batch", rank, m.Kind))
			}
			if m.Base != n || int64(n)+int64(len(m.Encs)) > math.MaxInt32 {
				return fail(fmt.Errorf("cluster: rank %d: protocol: batch has Base %d for %d encodings, want Base %d", rank, m.Base, len(m.Encs), n))
			}
			for _, e := range m.Encs {
				h := store.Hash(e)
				if owner := h % uint64(procs); owner != mine {
					return fail(fmt.Errorf("cluster: rank %d: shard assignment corrupt: encoding %x belongs to rank %d, not %d", rank, e, owner, mine))
				}
				if _, fresh := seen.InternEncoded(e, h); fresh {
					wins = append(wins, n)
				}
				n++
			}
		}
		if err := seen.Err(); err != nil {
			return fail(fmt.Errorf("cluster: rank %d: storage: %w", rank, err))
		}
		for base := 0; base < len(wins); base += batchChunk {
			if err := enc.Encode(msg{Kind: kReply, Win: wins[base:min(base+batchChunk, len(wins))]}); err != nil {
				return ctxErr(ctx, err)
			}
		}
		if err := enc.Encode(msg{Kind: kLevel, Owned: int64(seen.Len()), BarrierNS: waitNS}); err != nil {
			return ctxErr(ctx, err)
		}
	}
}
