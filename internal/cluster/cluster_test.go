package cluster

// In-process cluster battery: coordinator and workers run as
// goroutines over real localhost TCP, so the whole protocol — gob
// framing, routing, barriers, owner dedup, winner replies — is
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
		want, err := explore.New(explore.Options{Workers: 2}).Reach(ctx, a)
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

// TestCoordinatorSendNeverBlocks pins the routing-deadlock fix: a
// coordinator-side send to a peer that is not reading must enqueue and
// return, never block on the peer's socket. net.Pipe is zero-buffered,
// so the pre-fix synchronous Encode would block on the first message.
func TestCoordinatorSendNeverBlocks(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	p := newPeer(server)
	defer p.shutdown()
	go p.write(func(error) {})

	done := make(chan struct{})
	go func() {
		defer close(done)
		encs := make([][]byte, 256)
		for i := range encs {
			encs[i] = bytes.Repeat([]byte{byte(i)}, 1024)
		}
		for i := 0; i < 64; i++ {
			if err := p.send(msg{Kind: kBatch, From: 0, To: 1, Encs: encs}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("send blocked on an unread peer socket — routing deadlock regression")
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

// TestClusterSendsDistinctEncodings: a discoverer keeps one set per
// owner, so an encoding crosses the wire at most once per level per
// discovering rank. On a grid every encoding is a candidate of exactly
// one level, which bounds the whole run at states × (procs − 1). (Routing
// every successor sent 2.67 per state on the benchmark's grid.)
func TestClusterSendsDistinctEncodings(t *testing.T) {
	const procs = 2
	o := obs.New(nil)
	res, errs := run(t, procs, nil, Config{Build: buildGrid(4, 4), Obs: o})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	sent := o.Reg.Snapshot().Counters["dist.sent_encs"]
	if sent <= 0 || sent > res.States*(procs-1) {
		t.Fatalf("dist.sent_encs = %d for %d states at %d procs, want in (0, %d]", sent, res.States, procs, res.States*(procs-1))
	}
}

// TestWorkRejectsBadFrames: whatever the wire says is outside input. A
// scripted coordinator over net.Pipe welcomes the worker as rank 0 of 2,
// plays the level-0 barriers honestly up to the named one, then sends
// one frame whose From, Base or Win points outside what it may index.
// Work must return an error naming the field and report kFail — never
// panic, never reach the level count.
func TestWorkRejectsBadFrames(t *testing.T) {
	encs := [][]byte{{0, 0, 0}}
	cases := []struct {
		name  string
		after int // the barrier message the bad frame follows
		bad   msg
		want  string
	}{
		{"welcome rank beyond procs", 0, msg{Kind: kWelcome, To: 2, Procs: 2}, "rank 2 of 2"},
		{"welcome without procs", 0, msg{Kind: kWelcome}, "rank 0 of 0"},
		{"batch From beyond procs", kCandsEnd, msg{Kind: kBatch, From: 2, Encs: encs}, "From 2"},
		{"batch From negative", kCandsEnd, msg{Kind: kBatch, From: -1, Encs: encs}, "From -1"},
		{"batch Base negative", kCandsEnd, msg{Kind: kBatch, From: 1, Base: -1, Encs: encs}, "Base -1"},
		{"batch Base overflows", kCandsEnd, msg{Kind: kBatch, From: 1, Base: 1<<31 - 1, Encs: encs}, "Base 2147483647"},
		{"reply From beyond procs", kRepliesEnd, msg{Kind: kReply, From: 7, Win: []int32{0}}, "From 7"},
		{"reply From negative", kRepliesEnd, msg{Kind: kReply, From: -3, Win: []int32{0}}, "From -3"},
		{"reply Win beyond set", kRepliesEnd, msg{Kind: kReply, From: 1, Win: []int32{1}}, "Win index 1"},
		{"reply Win negative", kRepliesEnd, msg{Kind: kReply, From: 1, Win: []int32{-1}}, "Win index -1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			client, server := net.Pipe()
			defer server.Close()
			workErr := make(chan error, 1)
			go func() { workErr <- work(ctx, client, Config{Build: buildGrid(3, 3)}) }()

			enc, dec := gob.NewEncoder(server), gob.NewDecoder(server)
			send := func(m msg) {
				t.Helper()
				if err := enc.Encode(m); err != nil {
					t.Fatalf("coordinator script: send kind %d: %v", m.Kind, err)
				}
			}
			// readUntil consumes the worker's messages up to one of kind
			// (0: until the worker hangs up) and returns the kinds seen.
			readUntil := func(kind int) map[int]int {
				seen := map[int]int{}
				for {
					var m msg
					if err := dec.Decode(&m); err != nil {
						if kind != 0 {
							t.Fatalf("coordinator script: waiting for kind %d: %v", kind, err)
						}
						return seen
					}
					if seen[m.Kind]++; m.Kind == kind {
						return seen
					}
				}
			}
			if c.after == 0 {
				send(c.bad)
			} else {
				send(msg{Kind: kWelcome, To: 0, Procs: 2})
				readUntil(kCandsEnd)
				if c.after == kRepliesEnd {
					send(msg{Kind: kCandsAll})
					readUntil(kRepliesEnd)
				}
				send(c.bad)
			}
			seen := readUntil(0)
			err := <-workErr
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Work returned %v, want an error naming %q", err, c.want)
			}
			if seen[kLevel] != 0 {
				t.Fatalf("worker reported a level count after the bad frame (kinds seen: %v)", seen)
			}
			if c.after != 0 && (seen[kFail] != 1 || !strings.Contains(err.Error(), "rank 0")) {
				t.Fatalf("want one kFail and an error naming rank 0; kinds seen %v, error %v", seen, err)
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
// grid BenchmarkLevelMerge uses: B/op over states is what the wire and
// the two level sets cost per state, sent_encs what crossed between the
// ranks.
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
