package store

// The storage abstraction behind the exploration engines (PR 10). A
// SeenSet is the dedup structure both explorers drive — intern a
// state's canonical encoding, get a dense ID and a freshness verdict —
// and a MemberProbe is its frozen-phase concurrent read view. The
// in-RAM arena Store is one implementation; Spill (spill.go) is the
// disk-backed second, which keeps a bounded hot batch in memory and
// flushes delta-encoded sorted runs to disk. The engines are written
// against these interfaces, so sequential and parallel BFS run
// unchanged over either backend.

import "repro/internal/ioa"

// A MemberProbe is a read-only membership view with its own encoding
// buffer, valid while the set is frozen (no Intern in flight). Each
// concurrent goroutine needs its own probe.
type MemberProbe interface {
	// Lookup reports whether s is in the set, returning its ID, the
	// Hash of its canonical encoding, and the membership verdict. Implementations that can fail (disk reads) report
	// not-found and latch the error on the owning set's Err.
	Lookup(s ioa.State) (ID, uint64, bool)
	// Bytes returns the canonical encoding produced by the most recent
	// Lookup; valid until the next Lookup on this probe.
	Bytes() []byte
}

// A SeenSet interns state encodings and hands out dense IDs: the i-th
// distinct state added gets ID i, so callers that intern in a canonical
// order get IDs whose numeric order reproduces it. Single-writer, like
// Store; Probe views are concurrent-read while frozen.
type SeenSet interface {
	// Canon returns the set's canonicalizer (nil without symmetry).
	Canon() Canonicalizer
	// AppendCanonical appends the canonical encoding of s to dst — the
	// byte form Intern dedups on.
	AppendCanonical(dst []byte, s ioa.State) []byte
	// Intern dedups s, returning its ID plus whether it was new.
	Intern(s ioa.State) (ID, bool)
	// InternEncoded interns already-canonical bytes given their Hash.
	// The bytes are copied before it returns.
	InternEncoded(enc []byte, hash uint64) (ID, bool)
	// Has reports membership without interning. Writer-side only.
	Has(s ioa.State) (ID, bool)
	// Len returns the number of interned states.
	Len() int
	// Stats summarizes occupancy (including spill volume, when any).
	Stats() Stats
	// Probe returns a fresh frozen-phase concurrent read view.
	Probe() MemberProbe
	// Err returns the first I/O, corruption or capacity error the set
	// has latched. Engines poll it at strides and barriers so a failing
	// disk or a full arena surfaces as a clean wrapped error rather
	// than a wrong state count.
	Err() error
	// Close releases any resources (run files, spill directories).
	Close() error
}

// Open builds a seen set: the disk-spilling Spill when spill is
// non-nil, the in-RAM arena Store otherwise. canon is threaded into
// either backend; a Canon set on spill itself is ignored. It is the one
// opener behind the exploration engine, the external census and the
// cluster worker.
func Open(spill *SpillOptions, canon Canonicalizer) (SeenSet, error) {
	if spill == nil {
		return New(Options{Canon: canon}), nil
	}
	o := *spill
	o.Canon = canon
	sp, err := NewSpill(o)
	if err != nil {
		return nil, err
	}
	return sp, nil
}

// Probe returns the arena store's probe behind the MemberProbe
// interface (NewProbe keeps the concrete type for existing callers).
func (st *Store) Probe() MemberProbe { return st.NewProbe() }

// Close implements SeenSet: nothing to release.
func (st *Store) Close() error { return nil }

var (
	_ SeenSet     = (*Store)(nil)
	_ MemberProbe = (*Probe)(nil)
)
