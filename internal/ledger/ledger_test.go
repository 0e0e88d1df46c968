package ledger

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeClock is a manually-advanced clock; every test drives cadence
// explicitly so throttling decisions are deterministic.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(3000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestRecordRoundTrip(t *testing.T) {
	clk := newFakeClock()
	var buf bytes.Buffer
	l := New(&buf, Options{Now: clk.now})
	run := Run{
		Tool:    "ioasim",
		Mode:    "induct",
		System:  "lamport",
		Seed:    7,
		Users:   2,
		Limit:   1 << 20,
		Domain:  "lamport-typeok(n=2,M=2,C=1)",
		Flags:   map[string]string{"induct": "true", "users": "2"},
		WallNS:  123456789,
		States:  518400,
		Verdict: "ok",
		Obligations: []Obligation{
			{Conjunct: "TypeOK", Discharged: 143},
			{Conjunct: "Mutex", Discharged: 143},
		},
		Artifacts: []string{"trace.json"},
	}
	if err := l.Record(run); err != nil {
		t.Fatalf("Record: %v", err)
	}
	entries, err := Parse(&buf)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(entries) != 1 {
		t.Fatalf("parsed %d entries, want 1", len(entries))
	}
	e := entries[0]
	if e.Schema != Schema || e.Kind != KindRun || e.Seq != 1 {
		t.Fatalf("entry header = %+v", e)
	}
	if e.TNS != clk.now().UnixNano() {
		t.Fatalf("TNS = %d, want clock %d", e.TNS, clk.now().UnixNano())
	}
	if !reflect.DeepEqual(*e.Run, run) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", *e.Run, run)
	}
}

// TestParseReadsRetiredPORField: journals written before PR 16 carry
// "por":true on run lines whose exploration used the since-deleted
// ample-set reduction, and journals written before the worker count
// went carry "workers". Schema stays 1, so such a line must still parse
// and every other field must round-trip.
func TestParseReadsRetiredPORField(t *testing.T) {
	var buf bytes.Buffer
	run := Run{
		Tool: "ioasim", Mode: "reach", System: "star", Seed: 1, Users: 12,
		Limit: 1 << 20, Symmetry: true,
		Flags:  map[string]string{"reach": "true", "symmetry": "true", "por": "true"},
		WallNS: 42, States: 8191, Verdict: "ok",
	}
	if err := New(&buf, Options{Now: newFakeClock().now}).Record(run); err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(buf.String(), `"symmetry":true,`, `"symmetry":true,"por":true,`, 1)
	old = strings.Replace(old, `"limit":`, `"workers":2,"limit":`, 1)
	if !strings.Contains(old, `"por":true`) || !strings.Contains(old, `"workers":2`) {
		t.Fatalf("could not splice the retired fields into %q", buf.String())
	}
	entries, err := Parse(strings.NewReader(old))
	if err != nil {
		t.Fatalf("Parse of a Schema-%d line carrying \"por\": %v", Schema, err)
	}
	if len(entries) != 1 || entries[0].Kind != KindRun || !reflect.DeepEqual(*entries[0].Run, run) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", entries, run)
	}
}

// TestSnapshotCadence drives OnProgress with a fake clock and checks
// the journaling rules: first-of-phase and Done always land, readings
// inside MinInterval are throttled (but still feed Last), and rates
// are derived against the previously journaled snapshot.
func TestSnapshotCadence(t *testing.T) {
	clk := newFakeClock()
	var buf bytes.Buffer
	l := New(&buf, Options{Now: clk.now}) // MinInterval defaults to 200ms

	l.OnProgress(obs.Progress{Phase: "explore", States: 100, Frontier: 40})
	clk.advance(50 * time.Millisecond)
	l.OnProgress(obs.Progress{Phase: "explore", States: 150, Frontier: 30}) // throttled
	if snap, _ := l.Last(); snap == nil || snap.States != 150 {
		t.Fatalf("Last after throttled reading = %+v, want States=150", snap)
	}
	clk.advance(200 * time.Millisecond)
	l.OnProgress(obs.Progress{Phase: "explore", States: 600, Frontier: 10})
	clk.advance(10 * time.Millisecond)
	l.OnProgress(obs.Progress{Phase: "explore", States: 620, Done: true}) // Done beats throttle

	entries, err := Parse(&buf)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	var snaps []Snapshot
	for _, e := range entries {
		if e.Kind != KindSnapshot {
			t.Fatalf("unexpected kind %q", e.Kind)
		}
		snaps = append(snaps, *e.Snapshot)
	}
	if len(snaps) != 3 {
		t.Fatalf("journaled %d snapshots, want 3 (first, interval, done): %+v", len(snaps), snaps)
	}
	if snaps[0].States != 100 || snaps[1].States != 600 || !snaps[2].Done {
		t.Fatalf("wrong snapshots journaled: %+v", snaps)
	}
	// Rate of the second journaled snapshot: (600-100) states over the
	// 250ms since the first journaled one.
	want := 500 / 0.25
	if got := snaps[1].RatePerSec; got < want-1 || got > want+1 {
		t.Fatalf("rate = %v, want ~%v", got, want)
	}
	if snaps[0].RatePerSec != 0 {
		t.Fatalf("first snapshot derived a rate %v from nothing", snaps[0].RatePerSec)
	}
}

// TestPhaseChangeAlwaysJournals: a new phase's first reading lands
// even if the previous journal write was moments ago.
func TestPhaseChangeAlwaysJournals(t *testing.T) {
	clk := newFakeClock()
	var buf bytes.Buffer
	l := New(&buf, Options{Now: clk.now})
	l.OnProgress(obs.Progress{Phase: "explore", States: 10})
	clk.advance(time.Millisecond)
	l.OnProgress(obs.Progress{Phase: "induct", States: 1})
	entries, err := Parse(&buf)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("journaled %d snapshots, want 2 (one per phase)", len(entries))
	}
	if entries[1].Snapshot.RatePerSec != 0 {
		t.Fatalf("rate derived across a phase boundary: %+v", entries[1].Snapshot)
	}
}

func TestEtaFromTotal(t *testing.T) {
	clk := newFakeClock()
	var buf bytes.Buffer
	l := New(&buf, Options{Now: clk.now, MinInterval: -1}) // journal everything
	l.OnProgress(obs.Progress{Phase: "induct", States: 1000, Total: 10000})
	clk.advance(time.Second)
	l.OnProgress(obs.Progress{Phase: "induct", States: 2000, Total: 10000})
	entries, err := Parse(&buf)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	// 1000 states/sec, 8000 to go: 8s.
	got := time.Duration(entries[1].Snapshot.ETANS)
	if got < 7900*time.Millisecond || got > 8100*time.Millisecond {
		t.Fatalf("ETA = %v, want ~8s", got)
	}
}

func TestEtaGeometricFrontier(t *testing.T) {
	clk := newFakeClock()
	var buf bytes.Buffer
	l := New(&buf, Options{Now: clk.now, MinInterval: -1})
	l.OnProgress(obs.Progress{Phase: "explore", States: 1000, Frontier: 400})
	clk.advance(time.Second)
	l.OnProgress(obs.Progress{Phase: "explore", States: 2000, Frontier: 200})
	entries, err := Parse(&buf)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	// Decay g = 0.5: remaining ≈ 200·0.5/0.5 = 200 states at 1000/s.
	got := time.Duration(entries[1].Snapshot.ETANS)
	if got < 150*time.Millisecond || got > 250*time.Millisecond {
		t.Fatalf("geometric ETA = %v, want ~200ms", got)
	}
}

// TestEtaGeometricLiveFrontier pins the spill-era fix: the decay base
// is the most recent reading, not the last journaled snapshot. Under
// throttling the journaled prev can be many levels stale, and a ratio
// taken against it compounds several levels of shrinkage into one
// bogus per-level g.
func TestEtaGeometricLiveFrontier(t *testing.T) {
	clk := newFakeClock()
	var buf bytes.Buffer
	l := New(&buf, Options{Now: clk.now, MinInterval: 10 * time.Second})
	l.OnProgress(obs.Progress{Phase: "census", States: 1000, Frontier: 1600}) // journaled (first)
	for _, p := range []obs.Progress{
		{Phase: "census", States: 2000, Frontier: 800}, // throttled readings,
		{Phase: "census", States: 3000, Frontier: 400}, // one per level
	} {
		clk.advance(time.Second)
		l.OnProgress(p)
	}
	clk.advance(8 * time.Second)
	l.OnProgress(obs.Progress{Phase: "census", States: 4000, Frontier: 200}) // journaled (due)
	entries, err := Parse(&buf)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("journaled %d entries, want 2", len(entries))
	}
	// Rate spans the journaled gap: 3000 states / 11s ≈ 273/s. Decay vs
	// the live previous reading is g = 200/400 = 0.5, so remaining ≈
	// 200·0.5/0.5 = 200 states ≈ 733ms. The stale journaled base would
	// give g = 200/1600 = 0.125 and ≈ 105ms instead.
	got := time.Duration(entries[1].Snapshot.ETANS)
	if got < 600*time.Millisecond || got > 900*time.Millisecond {
		t.Fatalf("geometric ETA = %v, want ~733ms (live-frontier decay)", got)
	}
}

func TestEchoLines(t *testing.T) {
	clk := newFakeClock()
	var echo bytes.Buffer
	l := New(&bytes.Buffer{}, Options{Now: clk.now, Echo: &echo})
	l.OnProgress(obs.Progress{Phase: "explore", States: 42, Total: 100})
	line := echo.String()
	if !strings.Contains(line, "progress explore") || !strings.Contains(line, "states=42") || !strings.Contains(line, "of=100 (42.0%)") {
		t.Fatalf("echo line = %q", line)
	}
}

// failWriter fails every write after the first n bytes succeed.
type failWriter struct{ failed bool }

func (w *failWriter) Write(p []byte) (int, error) {
	w.failed = true
	return 0, errors.New("disk full")
}

func TestStickyWriteError(t *testing.T) {
	clk := newFakeClock()
	l := New(&failWriter{}, Options{Now: clk.now})
	if err := l.Record(Run{Tool: "t", Mode: "m", Verdict: "ok"}); err == nil {
		t.Fatal("Record against a failing writer returned nil")
	}
	if l.Err() == nil {
		t.Fatal("Err() lost the sticky error")
	}
	// Entries keep accumulating in the ring for the watchdog even
	// though nothing reaches the writer.
	l.OnProgress(obs.Progress{Phase: "p", States: 1})
	if got := len(l.Recent()); got != 2 {
		t.Fatalf("ring holds %d entries after error, want 2", got)
	}
}

func TestRingBounded(t *testing.T) {
	clk := newFakeClock()
	l := New(&bytes.Buffer{}, Options{Now: clk.now, RingSize: 4, MinInterval: -1})
	for i := 0; i < 10; i++ {
		l.OnProgress(obs.Progress{Phase: "p", States: int64(i)})
	}
	recent := l.Recent()
	if len(recent) != 4 {
		t.Fatalf("ring length %d, want 4", len(recent))
	}
	if recent[3].Snapshot.States != 9 || recent[0].Snapshot.States != 6 {
		t.Fatalf("ring kept wrong window: %+v", recent)
	}
}

func TestParseMalformedPrefix(t *testing.T) {
	clk := newFakeClock()
	var buf bytes.Buffer
	l := New(&buf, Options{Now: clk.now})
	if err := l.Record(Run{Tool: "t", Mode: "m", Verdict: "ok"}); err != nil {
		t.Fatalf("Record: %v", err)
	}
	buf.WriteString("{truncated by a crash")
	entries, err := Parse(&buf)
	if err == nil {
		t.Fatal("Parse accepted a malformed line")
	}
	if len(entries) != 1 {
		t.Fatalf("Parse returned %d prefix entries, want 1", len(entries))
	}
}

func TestParseSchemaMismatch(t *testing.T) {
	r := strings.NewReader(`{"schema":99,"kind":"run","seq":1,"t_ns":0}`)
	if _, err := Parse(r); err == nil {
		t.Fatal("Parse accepted a future schema version")
	}
}
