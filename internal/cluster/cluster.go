// Package cluster shards state-space exploration across OS processes
// over localhost TCP: ioasim -dist-listen runs the coordinator,
// ioasim -dist-join runs a worker, and the reachable set is
// partitioned by store.Hash of each state's canonical encoding modulo
// the process count. The hash is unspecified beyond being the same
// function within one binary, so all ranks of one run must be the same
// build (-dist-spawn forks the coordinator's own executable); a rank
// built from other source would route to other owners, and the
// receiving owner's shard check aborts the run.
//
// The protocol is level-synchronized BFS with a
// discoverer-expands/owner-dedups split, chosen so that concrete
// states never cross a process boundary — only canonical encodings
// do, which means any automaton the in-process engines can explore
// (composed tuples included) can be explored by a cluster, with no
// Decode hook:
//
//  1. Each worker expands its frontier (states it discovered and won
//     last level) into one store.LevelSet per owner, Hash(enc) mod
//     procs — each canonical encoding once, with the concrete state
//     that produced it — and routes every set's encodings to its owner
//     via the coordinator.
//  2. Each owner folds what arrives from all ranks into one level set
//     keeping the least (sender, index) per encoding, and interns those
//     absent from its shard of the seen set in the set's Order — byte
//     order, mirroring the in-process engine's key-sorted barrier
//     interning. The least discoverer of each fresh encoding is told it
//     won and will expand the state next level.
//  3. Workers report per-level counts; the coordinator sums them,
//     decides continuation, and broadcasts it.
//
// Determinism: an owner's shard is a set of canonical encodings, and
// step 2 makes the set admitted at each level a pure function of the
// previous levels' global set — independent of process count, worker
// scheduling, and network interleaving. State counts, depths, and
// verdicts are therefore bit-identical at any -dist-workers value,
// and identical to the in-process engines; the battery in
// cluster_test.go pins all three against each other. Which process
// expands a state (and hence wall-clock balance) does vary — that is
// the point — but expansion is a pure function of the state, so the
// candidate sets do not.
//
// Every received candidate is verified to belong to the receiving
// rank's shard; a corrupted shard assignment (the -dist-corrupt test
// hook, or a real routing bug) aborts the whole cluster rather than
// silently double-counting. So does a frame whose rank, offset or win
// index points outside what it may index: the wire is outside input.
//
// Flow control: workers send their entire per-level batch set before
// reading anything, so the coordinator must never let one peer's
// inbound traffic block on another peer's outbound socket — that cycle
// (reader of rank A blocked writing to rank B, whose own sends are
// backed up behind A's) deadlocks the cluster as soon as routed volume
// exceeds kernel TCP buffering. Two measures prevent it: workers chunk
// batches into bounded kBatch messages (batchChunk encodings each,
// with a Base offset keeping candidate indices global), and the
// coordinator gives every peer an unbounded outbound queue drained by
// a dedicated writer goroutine, so routing a message only ever
// enqueues. The cost is that in-flight routed batches buffer in
// coordinator RAM — bounded by one level's distinct cross-rank
// candidates, the same O(level width) bound the workers themselves carry
// (see the memory note on Work).
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
	// Build constructs the automaton locally. Every process must build
	// the same automaton — the protocol ships encodings, not states.
	Build func() (ioa.Automaton, error)
	// Limit bounds the global admitted-state count; 0 means no bound.
	Limit int64
	// Pred, when non-nil, is the invariant checked on every admitted
	// state (at its discoverer, which holds the concrete state).
	Pred func(ioa.State) bool
	// Spill, when non-nil, backs each worker's shard of the seen set
	// with the disk-spilling store.
	Spill *store.SpillOptions
	// Canon optionally canonicalizes encodings (symmetry quotient).
	Canon store.Canonicalizer
	// Listener, when non-nil, is a pre-bound coordinator listener;
	// Coordinate takes ownership of it and ignores Addr. Callers bind
	// it themselves to listen on an ephemeral port (":0") and learn
	// the real address before spawning workers.
	Listener net.Listener
	// Obs, when non-nil on the coordinator, receives cluster-wide
	// progress: dist.* metrics and per-level Progress snapshots.
	Obs *obs.Obs
	// CorruptShard is the must-fail test hook: the worker routes every
	// candidate to the wrong owner, which the receiving owners detect.
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
	// Violation is the key of the least violating state of the first
	// violating level, "" when the invariant held.
	Violation string
	// BarrierWaitNS is the total time workers spent blocked at level
	// barriers, summed across ranks.
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
	kWelcome    = iota + 1 // coordinator → worker: rank assignment
	kBatch                 // worker → owner (routed): candidate encodings
	kCandsEnd              // worker → coordinator: done sending batches
	kCandsAll              // coordinator → workers: every rank is done
	kReply                 // owner → discoverer (routed): winning indices
	kRepliesEnd            // worker → coordinator: done sending replies
	kRepliesAll            // coordinator → workers: every owner is done
	kLevel                 // worker → coordinator: level stats
	kCtl                   // coordinator → workers: continue / stop
	kFail                  // worker → coordinator: abort with error
)

// batchChunk caps the encodings per kBatch message (and wins per
// kReply), so neither a gob allocation nor a coordinator queue entry
// ever holds a whole level. A var only so tests can shrink it to force
// multi-chunk reassembly on small systems.
var batchChunk = 4096

// msg is the single wire envelope; the meaningful fields depend on
// Kind.
type msg struct {
	Kind int
	From int // sender rank
	To   int // routing target rank (kBatch, kReply)

	Procs int      // kWelcome
	Base  int32    // kBatch: index of Encs[0] within everything From sent To this level
	Encs  [][]byte // kBatch: distinct candidate encodings, discovery order
	Win   []int32  // kReply: winning indices into the candidates From received from To

	Fresh     int64  // kLevel: encodings this rank interned as owner
	Owned     int64  // kLevel: this rank's shard size
	Sent      int64  // kLevel: distinct encodings this rank routed to other ranks
	BarrierNS int64  // kLevel: time blocked at this level's barriers
	Violation string // kLevel: least violating key among this rank's wins

	Continue bool   // kCtl
	Err      string // kCtl, kFail
}

// peer is one coordinator-side worker connection. Outbound messages go
// through an unbounded queue drained by a dedicated writer goroutine
// (write), so send never blocks on the peer's socket — the property
// the routing-deadlock argument in the package doc rides on.
type peer struct {
	conn net.Conn
	dec  *gob.Decoder
	enc  *gob.Encoder

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []msg
	busy   bool  // writer mid-batch
	err    error // first write error, latched
	closed bool
}

func newPeer(conn net.Conn) *peer {
	p := &peer{conn: conn, dec: gob.NewDecoder(conn), enc: gob.NewEncoder(conn)}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// send enqueues m for the writer goroutine. It returns the writer's
// latched error, if any, so control-loop sends still fail fast.
func (p *peer) send(m msg) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return p.err
	}
	if p.closed {
		return net.ErrClosed
	}
	p.queue = append(p.queue, m)
	p.cond.Broadcast()
	return nil
}

// drain blocks until the writer has flushed every queued message (or
// failed, or been shut down). Coordinate drains before returning so a
// final control broadcast reaches the workers instead of dying in the
// queue when the deferred shutdown closes the sockets.
func (p *peer) drain() {
	p.mu.Lock()
	for (len(p.queue) > 0 || p.busy) && p.err == nil && !p.closed {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// shutdown wakes the writer so it exits and closes the socket, which
// also unblocks a writer mid-Encode.
func (p *peer) shutdown() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.conn.Close()
}

// write drains the queue onto the socket until shutdown or a write
// error; fail reports the first error.
func (p *peer) write(fail func(error)) {
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		batch := p.queue
		p.queue = nil
		p.busy = true
		p.mu.Unlock()
		for _, m := range batch {
			if err := p.enc.Encode(m); err != nil {
				p.mu.Lock()
				p.err = err
				p.busy = false
				p.cond.Broadcast()
				p.mu.Unlock()
				fail(err)
				return
			}
		}
		p.mu.Lock()
		p.busy = false
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// Coordinate listens on cfg.Addr, waits for cfg.Procs workers, drives
// the level barriers, and returns the cluster-wide result. It does not
// explore anything itself.
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

	// Cancellation: closing the listener/conns unblocks Accept and the
	// readers. The accept loop stores a peer only under mu and while not
	// stopped, so the sweep below sees every peer stored and the loop
	// shuts down any it accepts after the sweep.
	peers := make([]*peer, cfg.Procs)
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
		for _, p := range peers {
			if p != nil {
				p.shutdown()
			}
		}
	}()

	events := make(chan msg, 4*cfg.Procs)
	var failOnce sync.Once
	fail := func(from int, format string, a ...any) {
		failOnce.Do(func() {
			events <- msg{Kind: kFail, From: from, Err: fmt.Sprintf(format, a...)}
		})
	}

	for rank := 0; rank < cfg.Procs; rank++ {
		conn, err := ln.Accept()
		if err != nil {
			return res, ctxErr(ctx, fmt.Errorf("cluster: accept: %w", err))
		}
		p := newPeer(conn)
		mu.Lock()
		if stopped {
			mu.Unlock()
			p.shutdown()
			return res, ctx.Err() // only a cancel stops the sweep this early
		}
		peers[rank] = p
		mu.Unlock()
		go p.write(func(err error) { fail(rank, "write rank %d: %v", rank, err) })
		if err := p.send(msg{Kind: kWelcome, To: rank, Procs: cfg.Procs}); err != nil {
			return res, fmt.Errorf("cluster: welcome rank %d: %w", rank, err)
		}
	}

	// Readers route kBatch/kReply peer-to-peer — enqueueing onto the
	// destination's writer queue, never blocking on its socket — and
	// funnel everything else to the control loop.
	for rank, p := range peers {
		go func(rank int, p *peer) {
			for {
				var m msg
				if err := p.dec.Decode(&m); err != nil {
					fail(rank, "read rank %d: %v", rank, err)
					return
				}
				switch m.Kind {
				case kBatch, kReply:
					if m.To < 0 || m.To >= cfg.Procs {
						fail(rank, "rank %d routed to bogus rank %d", rank, m.To)
						return
					}
					if err := peers[m.To].send(m); err != nil {
						fail(rank, "route to rank %d: %v", m.To, err)
						return
					}
				default:
					events <- m
				}
			}
		}(rank, p)
	}

	broadcast := func(m msg) error {
		for rank, p := range peers {
			if err := p.send(m); err != nil {
				return fmt.Errorf("cluster: broadcast to rank %d: %w", rank, err)
			}
		}
		return nil
	}
	drainAll := func() {
		for _, p := range peers {
			if p != nil {
				p.drain()
			}
		}
	}
	abort := func(reason error) (Result, error) {
		_ = broadcast(msg{Kind: kCtl, Continue: false, Err: reason.Error()}) //lint:ignore errflow already aborting; the primary error wins
		drainAll()
		return res, reason
	}
	// waitAll collects one message of the wanted kind from every rank.
	waitAll := func(kind int) ([]msg, error) {
		out := make([]msg, 0, cfg.Procs)
		for len(out) < cfg.Procs {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case m := <-events:
				if m.Kind == kFail {
					return nil, fmt.Errorf("cluster: rank %d failed: %s", m.From, m.Err)
				}
				if m.Kind != kind {
					return nil, fmt.Errorf("cluster: protocol: got kind %d, want %d", m.Kind, kind)
				}
				out = append(out, m)
			}
		}
		return out, nil
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
	for level := int64(0); ; level++ {
		if _, err := waitAll(kCandsEnd); err != nil {
			return abort(err)
		}
		if err := broadcast(msg{Kind: kCandsAll}); err != nil {
			return abort(err)
		}
		if _, err := waitAll(kRepliesEnd); err != nil {
			return abort(err)
		}
		if err := broadcast(msg{Kind: kRepliesAll}); err != nil {
			return abort(err)
		}
		stats, err := waitAll(kLevel)
		if err != nil {
			return abort(err)
		}
		var fresh, total, frontier int64
		violation := ""
		for _, m := range stats {
			fresh += m.Fresh
			total += m.Owned
			frontier += m.Fresh // next level's frontier is this level's winners
			res.PerRank[m.From] = m.Owned
			res.BarrierWaitNS += m.BarrierNS
			if m.Violation != "" && (violation == "" || m.Violation < violation) {
				violation = m.Violation
			}
			if o != nil {
				o.Dist.ShardStates(m.From, m.Owned)
				o.Dist.SentEncs.Add(m.Sent)
				o.Dist.BarrierWaitNS.Add(m.BarrierNS)
			}
		}
		res.States = total
		if fresh > 0 && level > 0 {
			res.Depth = level
		}
		if o != nil {
			o.Dist.Levels.Add(1)
			o.EmitProgress(obs.Progress{
				Phase:         "dist",
				Depth:         level,
				States:        total,
				Frontier:      frontier,
				BarrierWaitNS: res.BarrierWaitNS,
				Done:          false,
			})
		}
		if violation != "" {
			res.Violation = violation
			if err := broadcast(msg{Kind: kCtl, Continue: false}); err != nil {
				return res, err
			}
			break
		}
		if cfg.Limit > 0 && total > cfg.Limit {
			return abort(fmt.Errorf("%w: %d states, limit %d", ErrLimit, total, cfg.Limit))
		}
		cont := fresh > 0
		if err := broadcast(msg{Kind: kCtl, Continue: cont}); err != nil {
			return res, err
		}
		if !cont {
			break
		}
	}
	drainAll()
	return res, nil
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

// ref names one candidate by its discoverer and its entry number in the
// set that discoverer keeps for this owner.
type ref struct {
	from int
	idx  int32
}

// Work dials the coordinator at cfg.Addr and explores this process's
// shard until the cluster finishes. The error is nil iff the whole
// cluster completed cleanly. Refused dials are retried for a bounded
// window, since hand-started workers race the coordinator's bind; the
// retry wraps only the dial, never the exploration.
//
// Memory: a worker holds the distinct candidates of the current level —
// per owner, each encoding it discovered once with the concrete state
// that produced it; as owner, each encoding routed to it once — so its
// RAM scales with the widest BFS level's distinct states, like the
// in-process engine's, even when Config.Spill backs the seen set
// (DESIGN.md "Worker memory bound" says why the states must stay).
func Work(ctx context.Context, cfg Config) error {
	if cfg.Build == nil {
		return fmt.Errorf("cluster: worker needs a Build hook")
	}
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
	rank, procs := welcome.To, welcome.Procs
	if procs < 1 || rank < 0 || rank >= procs {
		return fmt.Errorf("cluster: protocol: welcome assigns rank %d of %d", rank, procs)
	}

	a, err := cfg.Build()
	if err != nil {
		return fmt.Errorf("cluster: rank %d: build: %w", rank, err)
	}
	seen, err := store.Open(cfg.Spill, cfg.Canon)
	if err != nil {
		return fmt.Errorf("cluster: rank %d: %w", rank, err)
	}
	//lint:ignore errflow storage failures already aborted the level loop; Close here only releases temp files
	defer seen.Close()

	fail := func(err error) error {
		//lint:ignore errflow the primary error wins; the coordinator also notices the closed conn
		enc.Encode(msg{Kind: kFail, From: rank, Err: err.Error()})
		return err
	}

	// out[owner] is what this rank discovered for owner this level: each
	// encoding once, with the first concrete state that produced it (one
	// goroutine discovers, so "first" is deterministic). in is what this
	// rank received as owner, the least (sender, index) per encoding — a
	// minimum, so independent of the order batches arrive in.
	out := make([]store.LevelSet[ioa.State], procs)
	in := store.LevelSet[ref]{Less: func(a, b ref) bool {
		return a.from < b.from || a.from == b.from && a.idx < b.idx
	}}
	var encBuf []byte
	offer := func(s ioa.State) bool {
		encBuf = seen.AppendCanonical(encBuf[:0], s)
		h := store.Hash(encBuf)
		owner := int(h % uint64(procs))
		if cfg.CorruptShard {
			owner = (owner + 1) % procs
		}
		// s is borrowed from step: keep the one the set keeps.
		if kept := out[owner].Add(encBuf, h, s); kept != nil {
			*kept = ioa.Keep(s)
		}
		return true
	}
	// receive files one candidate this rank was sent as owner, refusing
	// what its shard does not own.
	receive := func(e []byte, h uint64, r ref) error {
		if owner := h % uint64(procs); owner != uint64(rank) {
			return fail(fmt.Errorf("cluster: rank %d: shard assignment corrupt: encoding %x from rank %d belongs to rank %d", rank, e, r.from, owner))
		}
		in.Add(e, h, r)
		return nil
	}
	// collect handles the messages of kind want routed to this rank until
	// the coordinator's barrier message all, and returns the time spent
	// at the barrier. The sender is vetted before handle indexes anything
	// by it. A stop mid-level is an abort and carries its reason.
	collect := func(want, all int, handle func(m msg) error) (int64, error) {
		start := testseed.Now()
		for {
			var m msg
			if err := dec.Decode(&m); err != nil {
				return 0, ctxErr(ctx, fmt.Errorf("cluster: rank %d: read: %w", rank, err))
			}
			switch {
			case m.Kind == all:
				return testseed.Now().Sub(start).Nanoseconds(), nil
			case m.Kind == kCtl && m.Err != "":
				return 0, ctlErr(rank, m)
			case m.Kind != want:
				return 0, fmt.Errorf("cluster: rank %d: protocol: kind %d while collecting kind %d", rank, m.Kind, want)
			case m.From < 0 || m.From >= procs:
				return 0, fail(fmt.Errorf("cluster: rank %d: protocol: kind %d message has From %d, want a rank below %d", rank, m.Kind, m.From, procs))
			}
			if err := handle(m); err != nil {
				return 0, err
			}
		}
	}

	// The owners sort each level's candidates, so the walk need not.
	step := ioa.NewWalk(a, false)
	// Level 0: every rank proposes the same start states and owner dedup
	// keeps one copy of each.
	for _, s := range a.Start() {
		offer(s)
	}

	views := make([][]byte, 0, batchChunk)
	for {
		// Phase A: route each owner its distinct candidates, as views
		// into the set's arena.
		var sentCount int64
		for owner := range out {
			if owner == rank {
				continue
			}
			n := out[owner].Len()
			sentCount += int64(n)
			for base := 0; base < n; base += batchChunk {
				views = views[:0]
				for i := base; i < min(base+batchChunk, n); i++ {
					views = append(views, out[owner].Key(i))
				}
				if err := enc.Encode(msg{Kind: kBatch, From: rank, To: owner, Base: int32(base), Encs: views}); err != nil {
					return ctxErr(ctx, fmt.Errorf("cluster: rank %d: send batch: %w", rank, err))
				}
			}
		}
		if err := enc.Encode(msg{Kind: kCandsEnd, From: rank}); err != nil {
			return ctxErr(ctx, err)
		}

		// Phase B: owner dedup, on arrival — this rank's own candidates,
		// then the batches addressed to it until the barrier.
		in.Reset()
		for i := 0; i < out[rank].Len(); i++ {
			if err := receive(out[rank].Key(i), out[rank].Hash(i), ref{rank, int32(i)}); err != nil {
				return err
			}
		}
		barrierNS, err := collect(kBatch, kCandsAll, func(m msg) error {
			if m.Base < 0 || int64(m.Base)+int64(len(m.Encs)) > math.MaxInt32 {
				return fail(fmt.Errorf("cluster: rank %d: protocol: batch from rank %d has Base %d for %d encodings", rank, m.From, m.Base, len(m.Encs)))
			}
			for i, e := range m.Encs {
				if err := receive(e, store.Hash(e), ref{m.From, m.Base + int32(i)}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}

		// Interning in key order, mirroring the in-process engine's
		// barrier, makes the shard's dense IDs canonical; each fresh
		// encoding's winner is told.
		var freshCount int64
		wins := make([][]int32, procs)
		for _, i := range in.Order() {
			if _, fresh := seen.InternEncoded(in.Key(i), in.Hash(i)); fresh {
				freshCount++
				r := in.Payload(i)
				wins[r.from] = append(wins[r.from], r.idx)
			}
		}
		if err := seen.Err(); err != nil {
			return fail(fmt.Errorf("cluster: rank %d: storage: %w", rank, err))
		}
		for r := 0; r < procs; r++ {
			if r == rank {
				continue
			}
			for base := 0; base < len(wins[r]); base += batchChunk {
				end := min(base+batchChunk, len(wins[r]))
				if err := enc.Encode(msg{Kind: kReply, From: rank, To: r, Win: wins[r][base:end]}); err != nil {
					return ctxErr(ctx, err)
				}
			}
			wins[r] = nil // sent; from here wins[r] is what owner r says this rank won
		}
		if err := enc.Encode(msg{Kind: kRepliesEnd, From: rank}); err != nil {
			return ctxErr(ctx, err)
		}

		// Collect win lists addressed to this rank; every index must
		// point into the set this rank sent that owner.
		replyNS, err := collect(kReply, kRepliesAll, func(m msg) error {
			for _, idx := range m.Win {
				if idx < 0 || int(idx) >= out[m.From].Len() {
					return fail(fmt.Errorf("cluster: rank %d: protocol: reply from rank %d has Win index %d, sent it %d candidates", rank, m.From, idx, out[m.From].Len()))
				}
			}
			wins[m.From] = append(wins[m.From], m.Win...)
			return nil
		})
		if err != nil {
			return err
		}

		// Phase C: assemble the next frontier from winning candidates,
		// check the invariant, and report the level. Each owner's wins
		// (wins[rank] is this rank's verdict on itself) are in the key
		// order it interned in.
		violation := ""
		var frontier []ioa.State
		for owner, win := range wins {
			for _, idx := range win {
				s := out[owner].Payload(int(idx))
				if cfg.Pred != nil && !cfg.Pred(s) {
					if k := s.Key(); violation == "" || k < violation {
						violation = k
					}
				}
				frontier = append(frontier, s)
			}
		}
		if err := enc.Encode(msg{
			Kind: kLevel, From: rank,
			Fresh: freshCount, Owned: int64(seen.Len()), Sent: sentCount,
			BarrierNS: barrierNS + replyNS, Violation: violation,
		}); err != nil {
			return ctxErr(ctx, err)
		}
		var ctl msg
		if err := dec.Decode(&ctl); err != nil {
			return ctxErr(ctx, fmt.Errorf("cluster: rank %d: read ctl: %w", rank, err))
		}
		if ctl.Kind != kCtl {
			return fmt.Errorf("cluster: rank %d: protocol: kind %d, want ctl", rank, ctl.Kind)
		}
		if !ctl.Continue {
			return ctlErr(rank, ctl)
		}

		// Expand the frontier into next level's candidates.
		for owner := range out {
			out[owner].Reset()
		}
		for _, s := range frontier {
			step.Visit(s, offer)
		}
	}
}

// ctlErr translates a stop control message into the worker's return
// value.
func ctlErr(rank int, m msg) error {
	if m.Err != "" {
		return fmt.Errorf("cluster: rank %d: coordinator aborted: %s", rank, m.Err)
	}
	return nil
}
