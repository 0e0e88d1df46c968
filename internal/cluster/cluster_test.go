package cluster

// In-process cluster battery: coordinator and workers run as
// goroutines over real localhost TCP, so the whole protocol — gob
// framing, level batches, shard interning, fresh-index replies — is
// exercised exactly as the multi-process CI job runs it. The pinned
// property is the tentpole's: state counts, depths, and verdicts are
// bit-identical at process counts {1, 2, 4} and identical to the
// in-process engines.

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/explore"
	"repro/internal/figures"
	"repro/internal/grid"
	"repro/internal/ioa"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/testseed"
)

// run starts a coordinator and procs workers on an ephemeral port and
// returns the coordinator's result plus every worker's error. The
// coordinator is handed the bound listener, so the port is never free
// for another process to take before the workers dial it.
func run(t testing.TB, procs int, mut func(rank int, cfg *Config), cfg Config) (Result, []error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	cfg.Procs, cfg.Listener, cfg.Addr = procs, ln, ln.Addr().String()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var (
		res     Result
		coorErr error
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, coorErr = Coordinate(ctx, cfg)
	}()

	errs := make([]error, procs)
	var wwg sync.WaitGroup
	for rank := 0; rank < procs; rank++ {
		wwg.Add(1)
		go func(rank int) {
			defer wwg.Done()
			wcfg := cfg
			if mut != nil {
				mut(rank, &wcfg)
			}
			errs[rank] = Work(ctx, wcfg)
		}(rank)
	}
	wwg.Wait()
	wg.Wait()
	if coorErr != nil {
		return res, append(errs, coorErr)
	}
	return res, errs
}

func buildGrid(m, k int) func() (ioa.Automaton, error) {
	return func() (ioa.Automaton, error) { return grid.New(m, k) }
}

func TestClusterMatchesEngineAcrossProcs(t *testing.T) {
	ctx := context.Background()
	base := testseed.Base(t)
	systems := map[string]func() (ioa.Automaton, error){
		"fig21":  func() (ioa.Automaton, error) { return figures.Fig21(), nil },
		"fig23c": func() (ioa.Automaton, error) { return figures.Fig23C(), nil },
		"grid44": buildGrid(4, 4),
		"grid28": buildGrid(2, 8),
	}
	for seed := int64(0); seed < 4; seed++ {
		seed := seed
		systems[fmt.Sprintf("rand%d", seed)] = func() (ioa.Automaton, error) {
			return randSystem(rand.New(rand.NewSource(base + 3100 + seed))), nil
		}
	}
	for name, build := range systems {
		a, err := build()
		if err != nil {
			t.Fatal(err)
		}
		want, err := explore.New(explore.Options{}).Reach(ctx, a)
		if err != nil {
			t.Fatalf("%s: engine: %v", name, err)
		}
		var prev *Result
		for _, procs := range []int{1, 2, 4} {
			res, errs := run(t, procs, nil, Config{Build: build})
			for rank, werr := range errs {
				if werr != nil {
					t.Fatalf("%s procs=%d rank %d: %v", name, procs, rank, werr)
				}
			}
			if res.States != int64(len(want)) {
				t.Fatalf("%s procs=%d: %d states, engine found %d", name, procs, res.States, len(want))
			}
			var sum int64
			for _, n := range res.PerRank {
				sum += n
			}
			if sum != res.States {
				t.Fatalf("%s procs=%d: shard sizes sum to %d, want %d", name, procs, sum, res.States)
			}
			if prev != nil {
				if res.States != prev.States || res.Depth != prev.Depth || res.Violation != prev.Violation {
					t.Fatalf("%s: procs=%d diverged from previous proc count: %+v vs %+v", name, procs, res, *prev)
				}
			}
			prev = &res
		}
	}
}

func TestClusterVerdictsBitIdentical(t *testing.T) {
	// An invariant that fails somewhere in the grid: verdicts and the
	// violating key must agree at every process count.
	build := buildGrid(3, 3)
	bad := string([]byte{1, 2, 0})
	pred := func(s ioa.State) bool { return s.Key() != bad }
	var prev *Result
	for _, procs := range []int{1, 2, 4} {
		res, errs := run(t, procs, nil, Config{Build: build, Pred: pred})
		for rank, err := range errs {
			if err != nil {
				t.Fatalf("procs=%d rank %d: %v", procs, rank, err)
			}
		}
		if res.Violation != bad {
			t.Fatalf("procs=%d: violation %q, want %q", procs, res.Violation, bad)
		}
		if res.Verdict() != `fail "\x01\x02\x00"` {
			t.Fatalf("procs=%d: verdict %q", procs, res.Verdict())
		}
		if prev != nil && (res.States != prev.States || res.Violation != prev.Violation) {
			t.Fatalf("procs=%d diverged: %+v vs %+v", procs, res, *prev)
		}
		prev = &res
	}
}

// TestClusterViolationIsFirstInBFSOrder: an invariant failing on two
// states of one grid level, the one with the least key found last
// (inc0 is stepped before inc2, so 100 comes before 001). The cluster
// reports the first in BFS order at every process count — the state
// explore's CheckInvariant reports.
func TestClusterViolationIsFirstInBFSOrder(t *testing.T) {
	build := buildGrid(3, 3)
	a, err := build()
	if err != nil {
		t.Fatal(err)
	}
	first, least := string([]byte{1, 0, 0}), string([]byte{0, 0, 1})
	pred := func(s ioa.State) bool { return s.Key() != first && s.Key() != least }
	v, err := explore.New(explore.Options{}).CheckInvariant(context.Background(), a, pred)
	if err != nil || v == nil || v.State.Key() != first {
		t.Fatalf("CheckInvariant = (%v, %v), want the violation at %q", v, err, first)
	}
	for _, procs := range []int{1, 2, 4} {
		res, errs := run(t, procs, nil, Config{Build: build, Pred: pred})
		for rank, err := range errs {
			if err != nil {
				t.Fatalf("procs=%d rank %d: %v", procs, rank, err)
			}
		}
		if res.Violation != first {
			t.Fatalf("procs=%d: violation %q, want %q, the first in BFS order", procs, res.Violation, first)
		}
	}
}

func TestClusterSpillBackedWorkers(t *testing.T) {
	build := buildGrid(4, 4)
	a, _ := build()
	g := a.(*grid.Grid)
	res, errs := run(t, 2, func(rank int, cfg *Config) {
		cfg.Spill = &store.SpillOptions{Dir: t.TempDir(), MemBudget: 128}
	}, Config{Build: build})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	if res.States != g.States() {
		t.Fatalf("spill-backed cluster found %d states, want %d", res.States, g.States())
	}
	if res.Depth != g.Depth() {
		t.Fatalf("spill-backed cluster depth %d, want %d", res.Depth, g.Depth())
	}
}

// pipeListener hands Coordinate one end of a net.Pipe per dial. A pipe
// buffers nothing, so every write waits until its reader takes it:
// whatever the protocol leaves to kernel buffering deadlocks here.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener(procs int) *pipeListener {
	return &pipeListener{conns: make(chan net.Conn, procs), closed: make(chan struct{})}
}

// dial returns the worker's end of a fresh pipe; the next Accept
// returns the other.
func (l *pipeListener) dial() net.Conn {
	client, server := net.Pipe()
	l.conns <- server
	return client
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// TestClusterOverUnbufferedPipes runs the whole protocol over pipes
// with three encodings or indices a frame, so every level is many
// frames each way and none can sit in a buffer: the counts must still
// equal the engine's, within the timeout.
func TestClusterOverUnbufferedPipes(t *testing.T) {
	old := batchChunk
	batchChunk = 3
	defer func() { batchChunk = old }()

	build := buildGrid(4, 4)
	a, _ := build()
	g := a.(*grid.Grid)
	want, err := explore.New(explore.Options{}).Reach(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		ln := newPipeListener(procs)
		errs := make(chan error, procs)
		for rank := 0; rank < procs; rank++ {
			conn := ln.dial()
			go func() { errs <- work(ctx, conn, Config{}) }()
		}
		res, err := Coordinate(ctx, Config{Procs: procs, Listener: ln, Build: build})
		for rank := 0; rank < procs; rank++ {
			if werr := <-errs; werr != nil && err == nil {
				err = werr
			}
		}
		cancel()
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		var sum int64
		for _, n := range res.PerRank {
			sum += n
		}
		if res.States != int64(len(want)) || res.Depth != g.Depth() || sum != res.States {
			t.Fatalf("procs=%d: %d states at depth %d, shards summing to %d; the engine found %d at depth %d",
				procs, res.States, res.Depth, sum, len(want), g.Depth())
		}
	}
}

// TestClusterChunkedBatches forces every routed batch and reply to
// span several kBatch/kReply messages and asserts counts, depths, and
// shard sums still match the single-message path — pinning the Base
// offset reassembly.
func TestClusterChunkedBatches(t *testing.T) {
	old := batchChunk
	batchChunk = 3
	defer func() { batchChunk = old }()

	build := buildGrid(4, 4)
	a, _ := build()
	g := a.(*grid.Grid)
	var prev *Result
	for _, procs := range []int{2, 4} {
		res, errs := run(t, procs, nil, Config{Build: build})
		for rank, err := range errs {
			if err != nil {
				t.Fatalf("procs=%d rank %d: %v", procs, rank, err)
			}
		}
		if res.States != g.States() {
			t.Fatalf("procs=%d: %d states, want %d", procs, res.States, g.States())
		}
		if res.Depth != g.Depth() {
			t.Fatalf("procs=%d: depth %d, want %d", procs, res.Depth, g.Depth())
		}
		var sum int64
		for _, n := range res.PerRank {
			sum += n
		}
		if sum != res.States {
			t.Fatalf("procs=%d: shard sizes sum to %d, want %d", procs, sum, res.States)
		}
		if prev != nil && (res.States != prev.States || res.Depth != prev.Depth) {
			t.Fatalf("procs=%d diverged from previous proc count: %+v vs %+v", procs, res, *prev)
		}
		prev = &res
	}
}

func TestClusterCorruptShardMustFail(t *testing.T) {
	res, errs := run(t, 2, func(rank int, cfg *Config) {
		if rank == 1 {
			cfg.CorruptShard = true
		}
	}, Config{Build: buildGrid(3, 3)})
	failed := false
	for _, err := range errs {
		if err != nil && strings.Contains(err.Error(), "shard assignment corrupt") {
			failed = true
		}
	}
	if !failed {
		t.Fatalf("corrupted shard assignment not detected: result %+v, errs %v", res, errs)
	}
}

// TestClusterLimit: the budget abort is explore.ErrLimit — the one
// sentinel ioasim and every engine caller already test for — and the
// aborted run still reports exactly one Done snapshot.
func TestClusterLimit(t *testing.T) {
	o := obs.New(nil)
	var done int
	o.Progress = func(p obs.Progress) { // the coordinator emits from one goroutine
		if p.Done {
			done++
		}
	}
	_, errs := run(t, 2, nil, Config{Build: buildGrid(4, 4), Limit: 10, Obs: o})
	coorErr := errs[len(errs)-1]
	if !errors.Is(coorErr, explore.ErrLimit) || !errors.Is(coorErr, ErrLimit) {
		t.Fatalf("limit 10 on a 256-state walk: coordinator err = %v, want explore.ErrLimit (all: %v)", coorErr, errs)
	}
	if done != 1 {
		t.Fatalf("aborted run emitted %d Done snapshots, want exactly 1", done)
	}
}

func TestClusterObsGauges(t *testing.T) {
	o := obs.New(nil)
	res, errs := run(t, 2, nil, Config{Build: buildGrid(3, 3), Obs: o})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	if res.States != 27 {
		t.Fatalf("states = %d", res.States)
	}
	snap := o.Reg.Snapshot()
	if snap.Gauges["dist.procs"] != 2 {
		t.Fatalf("dist.procs = %d", snap.Gauges["dist.procs"])
	}
	if snap.Counters["dist.levels"] == 0 {
		t.Fatal("dist.levels never incremented")
	}
	var shardSum int64
	for _, rank := range []string{"0", "1"} {
		shardSum += snap.Gauges["dist.shard_states."+rank]
	}
	if shardSum != 27 {
		t.Fatalf("shard gauges sum to %d, want 27", shardSum)
	}
}

// TestClusterSendsDistinctEncodings: the coordinator deduplicates
// each level's candidates into one set per owner before it sends, so an
// encoding crosses the wire at most once per level, to its owner alone.
// On a grid every encoding is a candidate of exactly one level, so the
// whole run sends each state exactly once, at any process count.
// (Routing every successor sent 2.67 per state on the benchmark's grid.)
func TestClusterSendsDistinctEncodings(t *testing.T) {
	for _, procs := range []int{2, 4} {
		o := obs.New(nil)
		res, errs := run(t, procs, nil, Config{Build: buildGrid(4, 4), Obs: o})
		for rank, err := range errs {
			if err != nil {
				t.Fatalf("procs %d rank %d: %v", procs, rank, err)
			}
		}
		if sent := o.Reg.Snapshot().Counters["dist.sent_encs"]; sent != res.States {
			t.Fatalf("dist.sent_encs = %d for %d states at %d procs, want one per state", sent, res.States, procs)
		}
	}
}

// tee is a worker's end of a connection that keeps a copy of every
// byte the worker reads.
type tee struct {
	net.Conn
	got *bytes.Buffer
}

func (c tee) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.got.Write(p[:n])
	return n, err
}

// TestClusterShipsEncoderBytes: every encoding the coordinator sends in
// a kBatch is ioa.Encoder(a) of a reachable state, and every reachable
// state's is sent, at 1, 2 and 4 processes, with the totals and depth of
// the in-process kernel. On the closed five-user arbiter those bytes are
// a composition's leaf cell indices, at most a fifth of AppendState's
// per state; on the grid, whose Encoder is AppendState, they are the
// AppendState bytes themselves.
func TestClusterShipsEncoderBytes(t *testing.T) {
	arbiter, err := bench.ExploreSystem(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := grid.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []ioa.Automaton{arbiter, gr} {
		sum, err := explore.New(explore.Options{}).Census(context.Background(), a, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		reach, err := explore.New(explore.Options{}).Reach(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		// The coordinator builds this very automaton, so its cell
		// indices are the ones encode reads here.
		encode := ioa.Encoder(a)
		want := make(map[string]bool, len(reach))
		var encBytes, stateBytes int
		for _, s := range reach {
			enc := encode(nil, s)
			want[string(enc)] = false
			encBytes += len(enc)
			stateBytes += len(ioa.AppendState(nil, s))
			if a == gr && !bytes.Equal(enc, ioa.AppendState(nil, s)) {
				t.Fatalf("grid: Encoder gives %x for %q, AppendState %x", enc, s.Key(), ioa.AppendState(nil, s))
			}
		}
		if a == arbiter && 5*encBytes > stateBytes {
			t.Fatalf("%s: %.1f encoded bytes a state against AppendState's %.1f: more than a fifth",
				a.Name(), float64(encBytes)/float64(len(reach)), float64(stateBytes)/float64(len(reach)))
		}
		for _, procs := range []int{1, 2, 4} {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			ln := newPipeListener(procs)
			got := make([]*bytes.Buffer, procs)
			errs := make(chan error, procs)
			for rank := range got {
				got[rank] = new(bytes.Buffer)
				conn := tee{ln.dial(), got[rank]}
				go func() { errs <- work(ctx, conn, Config{}) }()
			}
			res, err := Coordinate(ctx, Config{Procs: procs, Listener: ln,
				Build: func() (ioa.Automaton, error) { return a, nil }})
			for range got {
				if werr := <-errs; werr != nil && err == nil {
					err = werr
				}
			}
			cancel()
			if err != nil {
				t.Fatalf("%s procs=%d: %v", a.Name(), procs, err)
			}
			if res.States != sum.States || res.Depth != sum.Depth || res.Violation != "" {
				t.Fatalf("%s procs=%d: %d states at depth %d (violation %q), the kernel %d at depth %d",
					a.Name(), procs, res.States, res.Depth, res.Violation, sum.States, sum.Depth)
			}
			seen := make(map[string]bool, len(want))
			for rank, buf := range got {
				dec := gob.NewDecoder(buf)
				for {
					var m msg
					if err := dec.Decode(&m); err != nil {
						break
					}
					if m.Kind != kBatch {
						continue
					}
					for _, enc := range m.Encs {
						if _, ok := want[string(enc)]; !ok {
							t.Fatalf("%s procs=%d: rank %d was sent %x, no reachable state's Encoder bytes", a.Name(), procs, rank, enc)
						}
						seen[string(enc)] = true
					}
				}
			}
			if len(seen) != len(want) {
				t.Fatalf("%s procs=%d: %d of the %d reachable states' encodings were sent", a.Name(), procs, len(seen), len(want))
			}
		}
	}
}

// TestWorkRejectsBadFrames: whatever the wire says is outside input. A
// scripted coordinator over net.Pipe sends a bad welcome, or welcomes
// the worker as rank 0 of 2 and then sends one frame whose Base points
// outside the level's batch or whose kind is out of turn. Work must
// return an error naming the field and report kFail — never panic,
// never reply.
func TestWorkRejectsBadFrames(t *testing.T) {
	encs := [][]byte{{0, 0, 0}}
	cases := []struct {
		name     string
		welcomed bool // an honest welcome precedes the bad frame
		bad      msg
		want     string
	}{
		{"welcome rank beyond procs", false, msg{Kind: kWelcome, Rank: 2, Procs: 2}, "rank 2 of 2"},
		{"welcome without procs", false, msg{Kind: kWelcome}, "rank 0 of 0"},
		{"batch Base negative", true, msg{Kind: kBatch, Base: -1, Encs: encs}, "Base -1"},
		{"batch Base overflows", true, msg{Kind: kBatch, Base: 1<<31 - 1, Encs: encs}, "Base 2147483647"},
		{"reply out of turn", true, msg{Kind: kReply, Win: []int32{0}}, fmt.Sprintf("kind %d", kReply)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			client, server := net.Pipe()
			defer server.Close()
			workErr := make(chan error, 1)
			go func() { workErr <- work(ctx, client, Config{}) }()

			enc, dec := gob.NewEncoder(server), gob.NewDecoder(server)
			send := func(m msg) {
				t.Helper()
				if err := enc.Encode(m); err != nil {
					t.Fatalf("coordinator script: send kind %d: %v", m.Kind, err)
				}
			}
			if c.welcomed {
				send(msg{Kind: kWelcome, Rank: 0, Procs: 2})
			}
			send(c.bad)
			seen := map[int]int{} // the kinds the worker sent before hanging up
			for {
				var m msg
				if err := dec.Decode(&m); err != nil {
					break
				}
				seen[m.Kind]++
			}
			err := <-workErr
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Work returned %v, want an error naming %q", err, c.want)
			}
			if seen[kReply] != 0 || seen[kLevel] != 0 {
				t.Fatalf("worker replied after the bad frame (kinds seen: %v)", seen)
			}
			if c.welcomed && (seen[kFail] != 1 || !strings.Contains(err.Error(), "rank 0")) {
				t.Fatalf("want one kFail and an error naming rank 0; kinds seen %v, error %v", seen, err)
			}
		})
	}
}

// TestCoordinateRejectsBadFrames is the other end: a scripted worker
// over net.Pipe reads its level-0 batch (the 3^3 grid's one start state)
// and answers with a Win index outside it, a repeated one, or a frame of
// a kind it may not send. Coordinate must return an error naming the
// field and stop the worker with it.
func TestCoordinateRejectsBadFrames(t *testing.T) {
	cases := []struct {
		name string
		bad  msg
		want string
	}{
		{"reply Win beyond set", msg{Kind: kReply, Win: []int32{1}}, "Win index 1"},
		{"reply Win negative", msg{Kind: kReply, Win: []int32{-1}}, "Win index -1"},
		{"reply Win repeated", msg{Kind: kReply, Win: []int32{0, 0}}, "Win index 0 after 0"},
		{"batch out of turn", msg{Kind: kBatch}, fmt.Sprintf("kind %d out of turn", kBatch)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			ln := newPipeListener(1)
			conn := ln.dial()
			defer conn.Close()
			coordErr := make(chan error, 1)
			go func() {
				_, err := Coordinate(ctx, Config{Procs: 1, Listener: ln, Build: buildGrid(3, 3)})
				coordErr <- err
			}()

			enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
			for kinds := map[int]int{}; kinds[kEnd] == 0; {
				var m msg
				if err := dec.Decode(&m); err != nil {
					t.Fatalf("worker script: reading the level-0 batch: %v", err)
				}
				kinds[m.Kind]++
			}
			if err := enc.Encode(c.bad); err != nil {
				t.Fatalf("worker script: send kind %d: %v", c.bad.Kind, err)
			}
			var last msg
			for {
				var m msg
				if err := dec.Decode(&m); err != nil {
					break
				}
				last = m
			}
			err := <-coordErr
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Coordinate returned %v, want an error naming %q", err, c.want)
			}
			if last.Kind != kStop || !strings.Contains(last.Err, c.want) {
				t.Fatalf("the worker's last frame was %+v, want a stop naming %q", last, c.want)
			}
		})
	}
}

// cancelListener hands Coordinate one end of a net.Pipe and cancels
// the context inside that first Accept; every later Accept blocks until
// the listener is closed.
type cancelListener struct {
	conn     net.Conn
	cancel   context.CancelFunc
	accepted bool
	closed   chan struct{}
	once     sync.Once
}

func (l *cancelListener) Accept() (net.Conn, error) {
	if !l.accepted {
		l.accepted = true
		l.cancel()
		return l.conn, nil
	}
	<-l.closed
	return nil, net.ErrClosed
}

func (l *cancelListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *cancelListener) Addr() net.Addr { return l.conn.LocalAddr() }

// TestCoordinateCancelShutsDownAcceptedPeer: a cancel that lands while
// the accept loop is storing a peer must still shut that peer down.
// Coordinate returns an error, and the worker's end of the accepted
// connection reads to EOF (past at most the welcome) instead of
// hanging on a connection nobody will ever close.
func TestCoordinateCancelShutsDownAcceptedPeer(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := client.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	ln := &cancelListener{conn: server, cancel: cancel, closed: make(chan struct{})}
	if _, err := Coordinate(ctx, Config{Procs: 2, Listener: ln}); err == nil {
		t.Fatal("a cancelled Coordinate returned no error")
	}
	if _, err := io.Copy(io.Discard, client); err != nil {
		t.Fatalf("the accepted connection was left open: %v", err)
	}
}

// BenchmarkClusterLevel runs a two-rank in-process cluster over the 7^5
// grid BenchmarkLevelMerge uses: B/op over states is what the wire, the
// coordinator's level sets and the shards cost per state, sent_encs what
// the coordinator sent the shards.
func BenchmarkClusterLevel(b *testing.B) {
	b.ReportAllocs()
	var states, sent int64
	for i := 0; i < b.N; i++ {
		o := obs.New(nil)
		res, errs := run(b, 2, nil, Config{Build: buildGrid(7, 5), Obs: o})
		for rank, err := range errs {
			if err != nil {
				b.Fatalf("rank %d: %v", rank, err)
			}
		}
		states, sent = res.States, o.Reg.Snapshot().Counters["dist.sent_encs"]
	}
	b.ReportMetric(float64(states), "states")
	b.ReportMetric(float64(sent), "sent_encs")
}

// randSystem mirrors the explore battery's random table shapes.
func randSystem(rng *rand.Rand) ioa.Automaton {
	name := fmt.Sprintf("ct%d", rng.Intn(1<<20))
	n := 3 + rng.Intn(5)
	states := make([]ioa.State, n)
	for i := range states {
		states[i] = ioa.KeyState(fmt.Sprintf("%s-%d", name, i))
	}
	acts := []ioa.Action{"a", "b", "c"}
	sig := ioa.MustSignature(nil, acts[:2], acts[2:])
	var steps []ioa.Step
	for _, act := range acts {
		k := 1 + rng.Intn(4)
		for j := 0; j < k; j++ {
			steps = append(steps, ioa.Step{
				From: states[rng.Intn(n)],
				Act:  act,
				To:   states[rng.Intn(n)],
			})
		}
	}
	classes := []ioa.Class{{Name: name, Actions: ioa.NewSet(acts...)}}
	return ioa.MustTable(name, sig, states[:1], steps, classes)
}
