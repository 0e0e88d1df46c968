package store

// The storage abstraction behind the exploration engines. A SeenSet is
// the dedup structure every explorer drives — intern an encoding, get a
// dense ID and a freshness verdict, or look one up without interning
// it. The in-RAM arena Store is one implementation; Spill (spill.go) is
// the disk-backed second, which keeps a bounded hot batch in memory and
// flushes delta-encoded sorted runs to disk. The cluster worker and the
// progress reporter are written against this interface, so they run
// unchanged over either backend.

// A SeenSet interns encodings and hands out dense IDs: the i-th distinct
// encoding added gets ID i, so callers that intern in a canonical order
// get IDs whose numeric order reproduces it. One goroutine at a time.
type SeenSet interface {
	// InternEncoded dedups enc given its Hash, returning its ID plus
	// whether it was new. The bytes are copied before it returns.
	InternEncoded(enc []byte, hash uint64) (ID, bool)
	// Lookup reports whether enc, given its Hash, is in the set, and
	// under which ID, without interning it. A failed disk read reports
	// not-found and latches on Err.
	Lookup(enc []byte, hash uint64) (ID, bool)
	// Len returns the number of interned encodings.
	Len() int
	// Stats summarizes occupancy (including spill volume, when any).
	Stats() Stats
	// Err returns the first I/O, corruption or capacity error the set
	// has latched. Engines poll it at strides and barriers so a failing
	// disk or a full arena surfaces as a clean wrapped error rather
	// than a wrong state count.
	Err() error
	// Close releases any resources (run files, spill directories).
	Close() error
}

// Close implements SeenSet: nothing to release.
func (st *Store) Close() error { return nil }

var _ SeenSet = (*Store)(nil)
