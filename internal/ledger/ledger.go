// Package ledger is the run journal behind -ledger-out: a
// schema-versioned JSONL stream where every certification run
// (reachability, refinement mapping, stabilization, induction,
// reduction, chaos, bench gate) appends a provenance record — which
// system, which seed, which flags, how many obligations, what verdict
// — and long walks append periodic progress snapshots with derived
// states/sec and ETA. The journal is append-only and line-oriented so
// crashed or concurrent runs leave parseable prefixes, and Parse
// round-trips whatever a writer produced.
//
// The ledger is the single consumer of obs.Progress: engines emit raw
// counts through obs.EmitProgress, and OnProgress timestamps them,
// derives rates, throttles to a minimum interval, and journals the
// result. A stall watchdog (watchdog.go) and the live /debug/progress
// endpoints (http.go) both read the same state.
//
// Stdlib only. The clock is injected (nil means testseed.Now) so the
// nondet analyzer's no-time.Now guarantee holds and tests drive
// cadence with fake clocks.
package ledger

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/testseed"
)

// Schema is the journal format version stamped on every entry.
// Parsers reject entries from other versions rather than guessing.
const Schema = 1

// Entry kinds.
const (
	// KindRun is a per-run provenance record (one per engine entry
	// point invocation).
	KindRun = "run"
	// KindSnapshot is an in-flight progress snapshot.
	KindSnapshot = "snapshot"
	// KindStall is a watchdog dump: no progress delta within the
	// configured window.
	KindStall = "stall"
)

// An Entry is one journal line. Exactly one of Run, Snapshot, Stall
// is non-nil, selected by Kind.
type Entry struct {
	Schema int    `json:"schema"`
	Kind   string `json:"kind"`
	// Seq numbers entries within one Ledger's lifetime, from 1.
	Seq int64 `json:"seq"`
	// TNS is the wall time the entry was journaled, in Unix
	// nanoseconds of the injected clock.
	TNS int64 `json:"t_ns"`

	Run      *Run      `json:"run,omitempty"`
	Snapshot *Snapshot `json:"snapshot,omitempty"`
	Stall    *Stall    `json:"stall,omitempty"`
}

// An Obligation is a per-conjunct discharged-obligation count,
// mirrored from obs.InductMetrics into the run record so induction
// certificates are auditable offline.
type Obligation struct {
	Conjunct   string `json:"conjunct"`
	Discharged int64  `json:"discharged"`
}

// A Run is the provenance record for one engine entry point
// invocation. Zero-valued fields are omitted from the journal; which
// fields are meaningful depends on Mode.
type Run struct {
	// Tool is the emitting binary ("ioasim", "arbiterbench").
	Tool string `json:"tool"`
	// Mode is the entry point: "reach", "check", "simulate", "proof",
	// "stabilize", "induct", "chaos", "bench-gate", ...
	Mode string `json:"mode"`
	// System is the model under test ("arbiter3", "lamport", ...).
	System string `json:"system,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
	Users  int    `json:"users,omitempty"`
	// Limit/Symmetry are the exploration engine knobs.
	Limit    int  `json:"limit,omitempty"`
	Symmetry bool `json:"symmetry,omitempty"`
	// Domain names the induction candidate domain walked, when the
	// mode has one.
	Domain string `json:"domain,omitempty"`
	// Flags records the explicitly-set command-line flags verbatim, so
	// a journaled run is reconstructable even for knobs this struct
	// does not model.
	Flags map[string]string `json:"flags,omitempty"`

	WallNS int64 `json:"wall_ns"`
	// States is the run's headline size: reachable states, closure
	// states, or induction domain states.
	States int64 `json:"states,omitempty"`
	// Verdict is "ok" on success, "fail" otherwise.
	Verdict string `json:"verdict"`
	// Detail carries the failure evidence: a CTI transcript, a
	// divergence message, the error text.
	Detail string `json:"detail,omitempty"`
	// Obligations are the per-conjunct obligation counts of an
	// induction run.
	Obligations []Obligation `json:"obligations,omitempty"`
	// Artifacts are paths of files the run wrote (traces, metrics
	// snapshots, bench JSON).
	Artifacts []string `json:"artifacts,omitempty"`
}

// A Snapshot is a journaled progress reading: the engine's raw counts
// plus rate and ETA derived by the ledger from consecutive readings.
type Snapshot struct {
	obs.Progress
	// RatePerSec is states processed per second since the previously
	// journaled snapshot; 0 on the first snapshot of a phase.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// ETANS estimates remaining wall time: exact arithmetic when the
	// walk knows its Total, a geometric extrapolation from frontier
	// decay for open-ended BFS, and 0 when no estimate is defensible.
	ETANS int64 `json:"eta_ns,omitempty"`
}

// A Stall is the watchdog's evidence dump: how long progress has been
// silent, the last snapshot seen, the ring of most recent journal
// entries, and a textual goroutine profile of the whole process.
type Stall struct {
	WindowNS     int64     `json:"window_ns"`
	SinceLastNS  int64     `json:"since_last_ns"`
	LastSnapshot *Snapshot `json:"last_snapshot,omitempty"`
	Recent       []Entry   `json:"recent,omitempty"`
	Goroutines   string    `json:"goroutines,omitempty"`
}

// Options configures a Ledger.
type Options struct {
	// Now supplies wall time; nil means testseed.Now.
	Now func() time.Time
	// MinInterval throttles journaled snapshots: between the first
	// snapshot of a phase and the Done snapshot (both always
	// journaled), at most one snapshot per MinInterval is written.
	// 0 means 200ms; negative disables throttling.
	MinInterval time.Duration
	// RingSize bounds the in-memory ring of recent entries the
	// watchdog dumps on stall. 0 means 64.
	RingSize int
	// Echo, when non-nil, receives a human-readable line per journaled
	// snapshot and stall (the -progress flag).
	Echo io.Writer
}

// A Ledger journals entries to one writer. All methods are safe for
// concurrent use; write errors are sticky and surfaced by Err and
// Record rather than panicking mid-run.
type Ledger struct {
	now         func() time.Time
	minInterval time.Duration
	echo        io.Writer

	mu   sync.Mutex
	w    io.Writer
	seq  int64
	err  error
	ring []Entry
	cap  int

	// Snapshot cadence and derivation state.
	lastPhase    string
	lastJournal  time.Time // last journaled snapshot
	lastActivity time.Time // last OnProgress call (watchdog signal)
	started      time.Time
	last         *Snapshot // most recent reading, journaled or not
	prev         *Snapshot // previously journaled snapshot
	prevAt       time.Time
}

// New builds a Ledger writing JSONL entries to w.
func New(w io.Writer, opts Options) *Ledger {
	now := opts.Now
	if now == nil {
		now = testseed.Now
	}
	mi := opts.MinInterval
	if mi == 0 {
		mi = 200 * time.Millisecond
	}
	ringCap := opts.RingSize
	if ringCap <= 0 {
		ringCap = 64
	}
	l := &Ledger{
		now:         now,
		minInterval: mi,
		echo:        opts.Echo,
		w:           w,
		cap:         ringCap,
	}
	l.started = now()
	l.lastActivity = l.started
	return l
}

// Now reads the ledger's injected clock.
func (l *Ledger) Now() time.Time { return l.now() }

// Err returns the first write or encode error, if any. Journaling
// keeps going after an error in the sense that entries are still
// formed and ringed, but nothing further reaches the writer.
func (l *Ledger) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Record journals one run provenance record and returns the ledger's
// sticky error state.
func (l *Ledger) Record(r Run) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.appendLocked(Entry{Kind: KindRun, Run: &r})
	return l.err
}

// OnProgress is the obs.Progress sink: assign it to Obs.Progress.
// Every reading refreshes the watchdog's activity clock and the live
// /debug/progress view; a reading is journaled when it is the first
// of its phase, when it is final (Done), or when MinInterval has
// elapsed since the last journaled snapshot.
func (l *Ledger) OnProgress(p obs.Progress) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	snap := l.deriveLocked(p, now)
	l.last = &snap
	l.lastActivity = now
	first := p.Phase != l.lastPhase
	due := l.minInterval < 0 || now.Sub(l.lastJournal) >= l.minInterval
	if !first && !due && !p.Done {
		return
	}
	l.lastPhase = p.Phase
	l.lastJournal = now
	l.appendLocked(Entry{Kind: KindSnapshot, Snapshot: &snap})
	l.prev = &snap
	l.prevAt = now
	if l.echo != nil {
		if _, err := fmt.Fprintln(l.echo, formatSnapshot(snap)); err != nil && l.err == nil {
			l.err = err
		}
	}
}

// deriveLocked computes rate and ETA for a reading against the
// previously journaled snapshot.
func (l *Ledger) deriveLocked(p obs.Progress, now time.Time) Snapshot {
	snap := Snapshot{Progress: p}
	prev := l.prev
	if prev == nil || prev.Phase != p.Phase {
		return snap
	}
	dt := now.Sub(l.prevAt)
	dstates := p.States - prev.States
	if dt <= 0 || dstates <= 0 {
		return snap
	}
	rate := float64(dstates) / dt.Seconds()
	snap.RatePerSec = rate
	switch {
	case p.Done:
		// Nothing left to estimate.
	case p.Total > p.States:
		snap.ETANS = int64(float64(p.Total-p.States) / rate * 1e9)
	default:
		// Open-ended BFS with a shrinking frontier: extrapolate the
		// remaining work as the geometric tail with per-level decay
		// g = cur/prev, i.e. frontier·g/(1−g) states to go. Crude, but
		// it turns "frontier is collapsing" into a number.
		//
		// The decay base is the most recent *reading* (l.last), not the
		// previously journaled snapshot: engines report the live
		// Frontier.Len() every level, and under snapshot throttling the
		// journaled prev can be many levels stale — on a spilled walk
		// the frontier shrinks across the gap and the stale ratio
		// inflates g far past the true per-level decay.
		base := prev
		if l.last != nil && l.last.Phase == p.Phase {
			base = l.last
		}
		if p.Frontier > 0 && base.Frontier > 0 && p.Frontier < base.Frontier {
			g := float64(p.Frontier) / float64(base.Frontier)
			remaining := float64(p.Frontier) * g / (1 - g)
			snap.ETANS = int64(remaining / rate * 1e9)
		}
	}
	return snap
}

// appendLocked stamps, encodes, rings, and writes one entry.
func (l *Ledger) appendLocked(e Entry) {
	l.seq++
	e.Schema = Schema
	e.Seq = l.seq
	e.TNS = l.now().UnixNano()
	if len(l.ring) == l.cap {
		copy(l.ring, l.ring[1:])
		l.ring[len(l.ring)-1] = e
	} else {
		l.ring = append(l.ring, e)
	}
	if l.err != nil {
		return
	}
	line, err := json.Marshal(e)
	if err != nil {
		l.err = fmt.Errorf("ledger: encode entry %d: %w", e.Seq, err)
		return
	}
	line = append(line, '\n')
	if _, err := l.w.Write(line); err != nil {
		l.err = fmt.Errorf("ledger: write entry %d: %w", e.Seq, err)
	}
}

// Recent copies the ring of most recent entries, oldest first.
func (l *Ledger) Recent() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Entry, len(l.ring))
	copy(out, l.ring)
	return out
}

// Last returns the most recent progress reading (journaled or
// throttled) and the wall time of the last progress activity.
func (l *Ledger) Last() (*Snapshot, time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.last == nil {
		return nil, l.lastActivity
	}
	snap := *l.last
	return &snap, l.lastActivity
}

// formatSnapshot renders one snapshot for the -progress echo.
func formatSnapshot(s Snapshot) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "progress %-18s states=%d", s.Phase, s.States)
	if s.Depth > 0 {
		fmt.Fprintf(&b, " depth=%d", s.Depth)
	}
	if s.Frontier > 0 {
		fmt.Fprintf(&b, " frontier=%d", s.Frontier)
	}
	if s.Total > 0 {
		fmt.Fprintf(&b, " of=%d (%.1f%%)", s.Total, 100*float64(s.States)/float64(s.Total))
	}
	if s.RatePerSec > 0 {
		fmt.Fprintf(&b, " rate=%.0f/s", s.RatePerSec)
	}
	if s.ETANS > 0 {
		fmt.Fprintf(&b, " eta=%s", time.Duration(s.ETANS).Round(time.Millisecond))
	}
	if s.Done {
		b.WriteString(" done")
	}
	return b.String()
}

// Parse reads a JSONL journal back into entries. It fails on the
// first malformed line or schema mismatch, returning the entries
// parsed so far — a crashed writer leaves a usable prefix.
func Parse(r io.Reader) ([]Entry, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []Entry
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			return out, fmt.Errorf("ledger: line %d: %w", lineNo, err)
		}
		if e.Schema != Schema {
			return out, fmt.Errorf("ledger: line %d: schema %d, want %d", lineNo, e.Schema, Schema)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("ledger: scan: %w", err)
	}
	return out, nil
}
