// Package store provides a compact interned state store for
// state-space exploration. Each state is encoded once into its
// canonical byte representation (ioa.AppendState: the bytes of Key(),
// built on demand — a tuple is streamed part by part and never owns a
// key string unless something asks for one),
// hashed with FNV-64a, and interned into arena-backed shards;
// interning hands out dense uint64 IDs in insertion order. Explorers
// keep their seen sets, BFS parent links, and witness reconstruction on
// IDs instead of map[string] keys, which removes per-state string-map
// overhead (string headers, per-probe string hashing, GC pressure from
// millions of map entries) on the reachability hot path.
//
// Concurrency contract. A Store is single-writer: Intern and Has must
// only be called from one goroutine at a time with no concurrent
// readers. Probes (NewProbe) support the parallel explorer's frozen
// phase: any number of Probes may run Lookup concurrently as long as
// no Intern is in flight — exactly the level-synchronized discipline
// of explore's sharded BFS, where the store is read-only while workers
// expand a level and written only at the level barrier by the
// coordinator.
//
// Determinism. IDs are assigned in insertion order, so a caller that
// interns states in a canonical order (BFS discovery order for the
// sequential explorer; per-level key-sorted order for the parallel
// one) gets IDs whose numeric order reproduces that canonical order.
// The explorers rely on this to keep witness-trace canonicalization
// bit-identical to the string-keyed seed implementation.
package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"repro/internal/ioa"
)

// An ID is a dense state identifier: the i-th state interned into a
// store has ID i.
type ID uint64

// None is the sentinel ID used for absent parent links.
const None ID = ^ID(0)

// DefaultShards is the arena shard count used when Options.Shards is
// zero. Sharding bounds individual arena and index growth: an append or
// a doubling only recopies its own shard.
const DefaultShards = 16

// A Canonicalizer maps each state to the canonical representative of
// its symmetry orbit, so that interning quotients the state space: two
// states related by a symmetry of the automaton canonicalize to the
// same representative, hash to the same FNV-64a value, and share one
// dense ID.
//
// Contract: Canonical must be a pure function, idempotent
// (Canonical(Canonical(s)) == Canonical(s)), orbit-invariant
// (s ~ t implies Canonical(s).Key() == Canonical(t).Key()), and exact
// (Canonical(s).Key() == Canonical(t).Key() only when s ~ t). The
// symmetry itself must be an automorphism of the transition relation;
// the reduce package provides checked implementations and the
// differential battery there enforces the contract against the
// unreduced oracle. Canonical must be safe for concurrent use: frozen
// stores are probed from many goroutines.
type Canonicalizer interface {
	// Name identifies the symmetry (for certificates and bench rows).
	Name() string
	// Canonical returns the orbit representative of s. It must not
	// retain or mutate s.
	Canonical(s ioa.State) ioa.State
}

// Options parameterizes a Store.
type Options struct {
	// Shards is the arena/bucket shard count, rounded up to a power of
	// two; 0 means DefaultShards.
	Shards int
	// Canon, when non-nil, canonicalizes every state before encoding
	// and hashing, so the store dedups symmetry orbits instead of
	// individual states. Callers still hand Intern concrete states and
	// may keep them as orbit representatives; only the stored encoding
	// is canonical. InternEncoded bypasses canonicalization and must be
	// given canonical bytes (AppendCanonical's or Probe.Bytes').
	Canon Canonicalizer
}

// loc records where one interned encoding lives: its shard and the
// byte range inside that shard's arena.
type loc struct {
	shard uint32
	off   uint32
	n     uint32
}

// arenaLimit is the largest shard arena a loc can address: off and
// off+n must both fit uint32. A variable so tests can shrink it.
var arenaLimit uint64 = math.MaxUint32

// shard is one arena plus the index of the IDs whose encodings live in
// it; a hash match is confirmed by byte comparison against the arena.
type shard struct {
	ix    Index
	arena []byte
}

// A Store interns state encodings and hands out dense IDs.
type Store struct {
	shards  []shard
	mask    uint64
	locs    []loc
	scratch []byte
	canon   Canonicalizer
	// err latches the first arena overflow (see InternEncoded).
	err error
}

// New builds an empty store.
func New(opts Options) *Store {
	n := opts.Shards
	if n <= 0 {
		n = DefaultShards
	}
	// Round up to a power of two so shard selection is a mask.
	p := 1
	for p < n {
		p <<= 1
	}
	return &Store{shards: make([]shard, p), mask: uint64(p - 1), canon: opts.Canon}
}

// Canon returns the store's canonicalizer (nil without symmetry
// reduction).
func (st *Store) Canon() Canonicalizer { return st.canon }

// AppendCanonical appends the canonical encoding of s to dst: the
// encoding of Canon.Canonical(s) when a canonicalizer is set, s's own
// encoding otherwise. This is the byte form Intern dedups on. The
// returned slice follows the append contract and never aliases
// store-owned memory.
func (st *Store) AppendCanonical(dst []byte, s ioa.State) []byte {
	if st.canon != nil {
		s = st.canon.Canonical(s)
	}
	return ioa.AppendState(dst, s)
}

// Hash is FNV-64a over b — the hash every store site uses, exported so
// probes and explorers can share computed values.
func Hash(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// ErrArenaFull is latched on Err when an encoding no longer fits the
// 32-bit offsets of its shard arena.
var ErrArenaFull = errors.New("store: shard arena full")

// Err returns the first arena overflow InternEncoded latched, nil
// otherwise. Like Intern it follows the single-writer rule.
func (st *Store) Err() error { return st.err }

// Len returns the number of interned states.
func (st *Store) Len() int { return len(st.locs) }

// ArenaBytes returns the total encoded bytes held across all shard
// arenas — the store's payload footprint, reported through the obs
// layer as store.arena_bytes.
func (st *Store) ArenaBytes() int64 {
	var n int64
	for i := range st.shards {
		n += int64(len(st.shards[i].arena))
	}
	return n
}

// ArenaCapBytes returns the total reserved capacity across all shard
// arenas. The gap to ArenaBytes is append-growth overshoot: memory
// the process holds but no state occupies yet. Progress snapshots and
// the store.arena_cap_bytes gauge report it so long walks show their
// real footprint, not just the payload.
func (st *Store) ArenaCapBytes() int64 {
	var n int64
	for i := range st.shards {
		n += int64(cap(st.shards[i].arena))
	}
	return n
}

// Stats is a point-in-time summary of a store's occupancy.
type Stats struct {
	// States is the number of interned states (dense ID space size).
	States int
	// ArenaBytes is the total encoded payload across shards.
	ArenaBytes int64
	// ArenaCapBytes is the total reserved arena capacity; the slack
	// over ArenaBytes is growth overshoot.
	ArenaCapBytes int64
	// Shards is the shard count.
	Shards int
	// SpilledStates is the number of interned states whose encodings
	// live in on-disk runs rather than RAM (zero for the arena store).
	SpilledStates int
	// SpilledBytes is the total size of the on-disk run files.
	SpilledBytes int64
	// SpillRuns is the number of sorted runs on disk.
	SpillRuns int
}

// Stats summarizes the store.
func (st *Store) Stats() Stats {
	return Stats{
		States:        st.Len(),
		ArenaBytes:    st.ArenaBytes(),
		ArenaCapBytes: st.ArenaCapBytes(),
		Shards:        len(st.shards),
	}
}

// Encoding returns the interned encoding of id as a view into the
// shard arena. The result must not be modified and is invalidated by
// the next Intern.
func (st *Store) Encoding(id ID) []byte {
	l := st.locs[id]
	return st.shards[l.shard].arena[l.off : l.off+l.n]
}

// Intern encodes s (canonicalizing first when Options.Canon is set),
// deduplicates it against the store, and returns its ID plus whether
// it was newly added. Single-writer: callers serialize Intern against
// all other store calls.
func (st *Store) Intern(s ioa.State) (ID, bool) {
	st.scratch = st.AppendCanonical(st.scratch[:0], s)
	return st.InternEncoded(st.scratch, Hash(st.scratch))
}

// InternEncoded interns an already-encoded state given its Hash. Under
// a canonicalizer the bytes must be canonical (AppendCanonical or
// Probe.Bytes). The bytes are copied into the shard arena before
// InternEncoded returns, so enc may be reused — or mutated — by the
// caller immediately afterwards without disturbing the stored
// encoding; the regression battery pins this no-aliasing contract.
//
// An encoding that would grow its shard arena past what a loc can
// address is not stored: InternEncoded returns (None, false) and
// latches ErrArenaFull on Err, which the engines poll, so the overflow
// ends the exploration with an error instead of wrapped offsets and a
// wrong state count.
func (st *Store) InternEncoded(enc []byte, hash uint64) (ID, bool) {
	if id, ok := st.lookup(enc, hash); ok {
		return id, false
	}
	sh := &st.shards[hash&st.mask]
	id := ID(len(st.locs))
	off := len(sh.arena)
	if uint64(off)+uint64(len(enc)) > arenaLimit {
		if st.err == nil {
			st.err = fmt.Errorf("%w: shard %d holds %d bytes, encoding of %d more exceeds %d",
				ErrArenaFull, hash&st.mask, off, len(enc), arenaLimit)
		}
		return None, false
	}
	sh.arena = append(sh.arena, enc...)
	st.locs = append(st.locs, loc{shard: uint32(hash & st.mask), off: uint32(off), n: uint32(len(enc))})
	sh.ix.Insert(hash, int(id))
	return id, true
}

// Has reports whether s (canonicalized when Options.Canon is set) is
// interned, and under which ID. It shares the writer's scratch buffer,
// so it follows the single-writer rule; concurrent readers use Probes
// instead.
func (st *Store) Has(s ioa.State) (ID, bool) {
	st.scratch = st.AppendCanonical(st.scratch[:0], s)
	return st.lookup(st.scratch, Hash(st.scratch))
}

// lookup finds an encoding without interning it.
func (st *Store) lookup(enc []byte, hash uint64) (ID, bool) {
	id, ok := st.shards[hash&st.mask].ix.Find(hash, func(id int) bool {
		return bytes.Equal(st.Encoding(ID(id)), enc)
	})
	if !ok {
		return None, false
	}
	return ID(id), true
}

// A Probe is a read-only view with its own encoding buffer, letting
// concurrent workers test membership allocation-free while the store
// is frozen (no Intern in flight).
type Probe struct {
	st  *Store
	buf []byte
}

// NewProbe returns a fresh probe. Each concurrent goroutine needs its
// own.
func (st *Store) NewProbe() *Probe { return &Probe{st: st} }

// Lookup reports whether s is interned, returning its ID, the FNV-64a
// hash of its canonical encoding (for reuse at the level barrier), and
// the membership verdict. Under a canonicalizer the probe looks up the
// orbit representative, so a hit means some orbit-mate of s was
// interned.
func (p *Probe) Lookup(s ioa.State) (ID, uint64, bool) {
	p.buf = p.st.AppendCanonical(p.buf[:0], s)
	h := Hash(p.buf)
	id, ok := p.st.lookup(p.buf, h)
	return id, h, ok
}

// Bytes returns the canonical encoding produced by the most recent
// Lookup. The slice aliases the probe's buffer — never the caller's
// input state or the store arenas — and is only valid until the next
// Lookup on this probe; consumers that outlive that window (the level
// sets) copy it.
func (p *Probe) Bytes() []byte { return p.buf }
