// Package store provides a compact interned state store for
// state-space exploration. Each state is encoded once into its
// canonical byte representation (ioa.AppendState: the bytes of Key(),
// built on demand — a tuple is streamed part by part and never owns a
// key string unless something asks for one),
// hashed (Hash: an unspecified 64-bit function of those bytes, stable
// within one binary, never persisted and never trusted for equality),
// and appended to an arena of fixed slabs behind sharded hash indexes;
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
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/ioa"
)

// An ID is a dense state identifier: the i-th state interned into a
// store has ID i.
type ID uint64

// None is the sentinel ID used for absent parent links.
const None ID = ^ID(0)

// shardCount is the number of index shards, a power of two. Sharding
// bounds index growth: a doubling rehashes only its own shard's table.
// (The encodings themselves sit in slabs that never move, so they need
// no such bound.)
const shardCount = 16

// A Canonicalizer maps each state to the canonical representative of
// its symmetry orbit, so that interning quotients the state space: two
// states related by a symmetry of the automaton canonicalize to the
// same representative, encode to the same bytes, and share one dense
// ID.
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
	// Canon, when non-nil, canonicalizes every state before encoding
	// and hashing, so the store dedups symmetry orbits instead of
	// individual states. Callers still hand Intern concrete states and
	// may keep them as orbit representatives; only the stored encoding
	// is canonical. InternEncoded bypasses canonicalization and must be
	// given canonical bytes (AppendCanonical's or Probe.Bytes').
	Canon Canonicalizer
}

// loc records where one interned encoding lives: its slab and the byte
// range inside it.
type loc struct {
	slab uint32
	off  uint32
	n    uint32
}

// The arena is a list of slabs, each allocated once at its final
// capacity, filled by appends that never reallocate, and never copied:
// Encoding views stay put for the store's life and growing the arena
// costs the new slab only. Capacities double from slabMin, so a
// ten-state store reserves kilobytes, up to slabMax, so a large one
// overshoots by at most a slab. An encoding that does not fit the rest
// of the last slab starts the next one (one longer than a slab gets a
// slab of its own size); the tail it leaves is the arena's only waste.
const (
	slabMin = 4 << 10
	slabMax = 1 << 20
)

// arenaLimit is the most encoded bytes a store holds. A loc numbers
// slabs in 32 bits; an encoding moves on only from a slab it does not
// fit, so two consecutive full-size slabs hold more than slabMax bytes
// between them, and below 2³⁰ × slabMax bytes the slab number cannot
// wrap. A variable so tests can shrink it.
var arenaLimit uint64 = 1 << 30 * slabMax

// shard is the index of the IDs whose hashes route to it; a hash match
// is confirmed by byte comparison against the arena.
type shard struct {
	ix Index
}

// A Store interns state encodings and hands out dense IDs.
type Store struct {
	shards [shardCount]shard
	slabs  [][]byte
	// arenaBytes is the slabs' summed len, kept for the limit check.
	arenaBytes int64
	locs       []loc
	scratch    []byte
	canon      Canonicalizer
	// err latches the first arena overflow (see InternEncoded).
	err error
}

// New builds an empty store.
func New(opts Options) *Store { return &Store{canon: opts.Canon} }

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

// Hash is the hash every store site uses — shard and cluster-owner
// routing, index slots, level sets, spill blooms — exported so probes
// and explorers can share computed values. Its contract is the uses'
// common need and no more: a 64-bit function of b, well spread in every
// bit range, the same within one binary. The values are unspecified,
// are in no persisted format (they may change between builds), and
// decide nothing: whoever finds a hash match compares the bytes.
//
// It reads b a little-endian word at a time. The length goes in first,
// so a key and the same key zero-padded start apart. Each word is xored
// into the state and the state folded through a 64×64→128-bit multiply,
// high half xor low half: unlike a plain multiply, whose top bits never
// reach the bottom, the fold carries every bit of the word into every
// bit range at one multiplication per eight bytes. A last fold finishes
// the short keys that saw at most one.
func Hash(b []byte) uint64 {
	const (
		k0 = 0x9e3779b97f4a7c15 // 2⁶⁴/φ
		k1 = 0xff51afd7ed558ccd // the fmix64 multipliers: odd, bits evenly set
		k2 = 0xc4ceb9fe1a85ec53
	)
	h := (uint64(len(b)) + 1) * k0
	for ; len(b) >= 8; b = b[8:] {
		h = fold(h^binary.LittleEndian.Uint64(b), k1)
	}
	if len(b) > 0 {
		var w uint64
		for i, c := range b {
			w |= uint64(c) << (8 * i)
		}
		h = fold(h^w, k1)
	}
	return fold(h^k0, k2)
}

// fold is the 128-bit product of x and k, high half xor low half.
func fold(x, k uint64) uint64 {
	hi, lo := bits.Mul64(x, k)
	return hi ^ lo
}

// ErrArenaFull is latched on Err when an encoding no longer fits what
// a loc can address.
var ErrArenaFull = errors.New("store: arena full")

// Err returns the first arena overflow InternEncoded latched, nil
// otherwise. Like Intern it follows the single-writer rule.
func (st *Store) Err() error { return st.err }

// Len returns the number of interned states.
func (st *Store) Len() int { return len(st.locs) }

// ArenaBytes returns the total encoded bytes held — the store's payload
// footprint, reported through the obs layer as store.arena_bytes.
func (st *Store) ArenaBytes() int64 { return st.arenaBytes }

// ArenaCapBytes returns the total reserved capacity: the sum of the
// slab capacities. The gap to ArenaBytes is the unfilled rest of the
// last slab plus the tails earlier slabs were left with: memory the
// process holds but no state occupies. Progress snapshots and the
// store.arena_cap_bytes gauge report it so long walks show their real
// footprint, not just the payload.
func (st *Store) ArenaCapBytes() int64 {
	var n int64
	for _, sl := range st.slabs {
		n += int64(cap(sl))
	}
	return n
}

// Stats is a point-in-time summary of a store's occupancy.
type Stats struct {
	// States is the number of interned states (dense ID space size).
	States int
	// ArenaBytes is the total encoded payload.
	ArenaBytes int64
	// ArenaCapBytes is the total reserved arena capacity; the slack
	// over ArenaBytes is unfilled slab space.
	ArenaCapBytes int64
	// SpilledStates is the number of interned states whose encodings
	// live in on-disk runs rather than RAM (zero for the arena store).
	SpilledStates int
	// SpilledBytes is the total size of the live on-disk run files.
	SpilledBytes int64
	// SpillRuns is the number of live sorted runs on disk.
	SpillRuns int
	// ResidentBytes is what a Spill holds in memory: the hot batch, every
	// run's bloom filter and sparse index, and the idle cursor buffers.
	// Zero for the arena store, whose footprint ArenaCapBytes reports.
	ResidentBytes int64
	// Compactions counts the merges of a tier's runs into one.
	Compactions int64
	// Merges counts MergeIntern calls and MergeCandidates the candidates
	// they presented.
	Merges, MergeCandidates int64
	// EntriesDecoded counts run entries decoded, by merges, point
	// lookups and compaction.
	EntriesDecoded int64
	// BlocksRead counts the blocks read one at a time: by point lookups,
	// and by merges seeking past what they have buffered.
	BlocksRead int64
	// BloomFalsePositives counts the keys a run's filter let through and
	// its block refuted.
	BloomFalsePositives int64
}

// Stats summarizes the store.
func (st *Store) Stats() Stats {
	return Stats{
		States:        st.Len(),
		ArenaBytes:    st.ArenaBytes(),
		ArenaCapBytes: st.ArenaCapBytes(),
	}
}

// Encoding returns the interned encoding of id as a view into the
// arena. The result must not be modified; it stays valid, at the same
// address, for the store's life.
func (st *Store) Encoding(id ID) []byte {
	l := st.locs[id]
	return st.slabs[l.slab][l.off : l.off+l.n]
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
// Probe.Bytes). The bytes are copied into the arena before
// InternEncoded returns, so enc may be reused — or mutated — by the
// caller immediately afterwards without disturbing the stored
// encoding; the regression battery pins this no-aliasing contract.
//
// An encoding that would grow the arena past what a loc can address is
// not stored: InternEncoded returns (None, false) and latches
// ErrArenaFull on Err, which the engines poll, so the overflow ends the
// exploration with an error instead of wrapped offsets and a wrong
// state count.
func (st *Store) InternEncoded(enc []byte, hash uint64) (ID, bool) {
	if id, ok := st.lookup(enc, hash); ok {
		return id, false
	}
	if uint64(st.arenaBytes)+uint64(len(enc)) > arenaLimit || uint64(len(enc)) > math.MaxUint32 {
		if st.err == nil {
			st.err = fmt.Errorf("%w: arena holds %d bytes, encoding of %d more exceeds %d",
				ErrArenaFull, st.arenaBytes, len(enc), arenaLimit)
		}
		return None, false
	}
	id := ID(len(st.locs))
	st.locs = append(st.locs, st.place(enc))
	st.shards[hash%shardCount].ix.Insert(hash, int(id))
	return id, true
}

// place copies enc into the arena, opening a slab when the last one
// cannot take it, and returns where it went.
func (st *Store) place(enc []byte) loc {
	last := len(st.slabs) - 1
	if last < 0 || cap(st.slabs[last])-len(st.slabs[last]) < len(enc) {
		size := slabMin
		if last >= 0 {
			size = min(2*cap(st.slabs[last]), slabMax)
		}
		size = max(size, len(enc))
		st.slabs = append(st.slabs, make([]byte, 0, size))
		last++
	}
	off := len(st.slabs[last])
	st.slabs[last] = append(st.slabs[last], enc...)
	st.arenaBytes += int64(len(enc))
	return loc{slab: uint32(last), off: uint32(off), n: uint32(len(enc))}
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
	id, ok := st.shards[hash%shardCount].ix.Find(hash, func(id int) bool {
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

// Lookup reports whether s is interned, returning its ID, the Hash of
// its canonical encoding (for reuse at the level barrier), and
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
