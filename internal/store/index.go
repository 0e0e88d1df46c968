package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math/bits"
	"slices"
)

// An Index is a pointer-free, open-addressed table from a 64-bit hash
// to a dense ordinal — the one dedup index under the arena Store's
// shards, the Spill's hot batch and the explorer's level sets. It holds
// no encodings: Find asks the caller's eq which of the ordinals filed
// under exactly that hash is the wanted entry (hashes route, bytes
// decide). A slot is the full hash plus ordinal+1, zero meaning empty,
// so the table is one allocation the collector never scans and an entry
// allocates nothing. Probing is linear; the table doubles rather than
// pass three-quarters full. The zero Index is empty and ready.
// Single-writer; any number of goroutines may Find concurrently while
// nobody Inserts or Resets.
type Index struct {
	slots []indexSlot
	n     int
	shift uint // 64 − log₂ len(slots)
}

type indexSlot struct{ hash, ord1 uint64 }

// home is a hash's first slot: the top bits of hash × 2⁶⁴/φ. The low
// bits already routed the encoding to its store shard (hash & mask) or
// its cluster owner's set (hash % procs) and are the same across one
// table.
func (ix *Index) home(hash uint64) uint64 {
	return (hash * 0x9e3779b97f4a7c15) >> ix.shift
}

// Find returns the first ordinal filed under hash that eq accepts.
func (ix *Index) Find(hash uint64, eq func(ord int) bool) (int, bool) {
	if ix.n == 0 {
		return 0, false
	}
	mask := uint64(len(ix.slots) - 1)
	for i := ix.home(hash); ; i = (i + 1) & mask {
		s := ix.slots[i]
		if s.ord1 == 0 {
			return 0, false
		}
		if s.hash == hash && eq(int(s.ord1-1)) {
			return int(s.ord1 - 1), true
		}
	}
}

// Insert files ord under hash. It does not look for an equal entry:
// callers Find first and Insert only what was absent.
func (ix *Index) Insert(hash uint64, ord int) {
	if (ix.n+1)*4 > len(ix.slots)*3 {
		old := ix.slots
		ix.slots = make([]indexSlot, max(16, slotsFor(ix.n+1)))
		ix.shift = uint(64 - bits.TrailingZeros(uint(len(ix.slots))))
		ix.n = 0
		for _, s := range old {
			if s.ord1 != 0 {
				ix.Insert(s.hash, int(s.ord1-1))
			}
		}
	}
	i, mask := ix.home(hash), uint64(len(ix.slots)-1)
	for ix.slots[i].ord1 != 0 {
		i = (i + 1) & mask
	}
	ix.slots[i] = indexSlot{hash, uint64(ord) + 1}
	ix.n++
}

// slotsFor is the table size n >= 1 entries need: the least power of
// two they leave at most three-quarters full.
func slotsFor(n int) int { return 1 << bits.Len(uint((4*n-1)/3)) }

// Reset empties the index and keeps its capacity.
func (ix *Index) Reset() {
	if ix.n > 0 {
		clear(ix.slots)
		ix.n = 0
	}
}

// A Batch is an insertion-ordered set of encodings held in RAM: one
// arena of concatenated bytes, entry boundaries, per-entry hashes and
// an Index over them. It is the Spill's hot batch (the hashes feed the
// bloom filter at flush) and the body of every LevelSet (the hashes
// ride to InternEncoded at the barrier). Boundaries are int, not
// uint32: SpillOptions.MemBudget may legally exceed 4 GiB and nothing
// bounds a level, so narrower offsets could wrap silently. The zero
// Batch is empty and ready; concurrency is the Index's.
type Batch struct {
	ix     Index
	arena  []byte
	ends   []int // entry i is arena[ends[i-1]:ends[i]], from 0 for i == 0
	hashes []uint64
	order  []int    // Order's result, reused
	heads  []uint64 // Order's scratch: each entry's first eight bytes
}

// Len returns the number of entries.
func (b *Batch) Len() int { return len(b.ends) }

// Bytes returns the encoded bytes held; Footprint adds what holding
// them costs.
func (b *Batch) Bytes() int64 { return int64(len(b.arena)) }

// Footprint returns the bytes the batch's entries cost it: their
// encodings, a boundary and a hash each, and the index table they need
// (16-byte slots; a real table never starts under 16 of them, which
// only a budget of a few hundred bytes can tell). It is what a memory
// budget on the batch compares against: a function of the entries, not
// of the capacity earlier batches left behind.
func (b *Batch) Footprint() int64 {
	n := len(b.ends)
	if n == 0 {
		return 0
	}
	return int64(len(b.arena)) + 16*int64(n) + 16*int64(slotsFor(n))
}

// Resident returns the bytes the batch holds, spare capacity and
// Order's scratch included.
func (b *Batch) Resident() int64 {
	return int64(cap(b.arena)) + 8*int64(cap(b.ends)+cap(b.hashes)+cap(b.order)+cap(b.heads)) + 16*int64(len(b.ix.slots))
}

// Key returns entry i's encoding, a view valid until the next Add.
func (b *Batch) Key(i int) []byte {
	lo := 0
	if i > 0 {
		lo = b.ends[i-1]
	}
	return b.arena[lo:b.ends[i]]
}

// Hash returns the hash entry i was added under.
func (b *Batch) Hash(i int) uint64 { return b.hashes[i] }

// Lookup finds enc, given its hash, and returns its entry number.
func (b *Batch) Lookup(enc []byte, hash uint64) (int, bool) {
	return b.ix.Find(hash, func(i int) bool { return bytes.Equal(b.Key(i), enc) })
}

// Add appends a copy of enc as the next entry. Like Index.Insert it
// does not dedup: callers Lookup first.
func (b *Batch) Add(enc []byte, hash uint64) {
	b.ix.Insert(hash, len(b.ends))
	b.arena = append(b.arena, enc...)
	b.ends = append(b.ends, len(b.arena))
	b.hashes = append(b.hashes, hash)
}

// Order returns the entry numbers in bytes.Compare order of their
// encodings — strictly increasing, since entries are distinct. This is
// the one place a run, a census chunk or a BFS level gets its canonical
// order. The slice is the batch's own, valid until the next Order.
//
// The sort compares each entry's first eight bytes as one big-endian
// word, zero-padded — which orders two keys as bytes.Compare does
// whenever the words differ — and the keys themselves only on a tie, so
// short keys (a grid's are six bytes) never reach bytes.Compare. That
// matters where the entries do not arrive nearly sorted: a cluster
// owner's level is one ascending run per sender, interleaved.
func (b *Batch) Order() []int {
	b.order, b.heads = b.order[:0], b.heads[:0]
	for i := range b.ends {
		b.order = append(b.order, i)
		b.heads = append(b.heads, head8(b.Key(i)))
	}
	slices.SortFunc(b.order, func(x, y int) int {
		if c := cmp.Compare(b.heads[x], b.heads[y]); c != 0 {
			return c
		}
		return bytes.Compare(b.Key(x), b.Key(y))
	})
	return b.order
}

// head8 is a key's first eight bytes as one big-endian word, zero-padded:
// two keys whose words differ compare as their words do.
func head8(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var head uint64
	for i, b := range key {
		head |= uint64(b) << (56 - 8*i)
	}
	return head
}

// Reset empties the batch and keeps its capacity.
func (b *Batch) Reset() {
	b.ix.Reset()
	b.arena, b.ends, b.hashes = b.arena[:0], b.ends[:0], b.hashes[:0]
}

// A LevelSet is the candidate set of one BFS level (or one shard, chunk
// or destination's share of it): a Batch of distinct encodings and,
// entry for entry, the payload kept with each — a witness crumb, a
// concrete state, a (sender, index); struct{} when the bytes are all
// there is. A duplicate collapses on arrival, so the set costs memory in
// proportion to the distinct candidates, not the successors.
type LevelSet[P any] struct {
	Batch
	// Less orders the payloads offered for one encoding; the least
	// stays, so the kept payload does not depend on arrival order. Nil
	// keeps the first arrival.
	Less     func(a, b P) bool
	payloads []P
}

// Add merges one candidate into the set, copying enc. It returns where
// p was stored, nil when the payload already kept for enc stayed — so a
// caller whose payload borrows memory copies what the set keeps, not
// every candidate. The pointer is valid until the next Add.
func (ls *LevelSet[P]) Add(enc []byte, hash uint64, p P) *P {
	if i, ok := ls.Lookup(enc, hash); ok {
		if ls.Less == nil || !ls.Less(p, ls.payloads[i]) {
			return nil
		}
		ls.payloads[i] = p
		return &ls.payloads[i]
	}
	ls.Batch.Add(enc, hash)
	ls.payloads = append(ls.payloads, p)
	return &ls.payloads[len(ls.payloads)-1]
}

// Payload returns the payload kept for entry i.
func (ls *LevelSet[P]) Payload(i int) P { return ls.payloads[i] }

// Reset empties the set, keeping its capacity and dropping the payloads'
// references so a finished level is collectable.
func (ls *LevelSet[P]) Reset() {
	ls.Batch.Reset()
	clear(ls.payloads)
	ls.payloads = ls.payloads[:0]
}
