package store

// Disk-spilling SeenSet. A Spill keeps recent interns in a bounded
// in-RAM hot batch and, whenever the batch exceeds its byte budget,
// flushes it as one immutable sorted run on disk: keys delta-encoded
// against their predecessor with leveldb-style restart points, a
// sparse in-memory block index (one first-key per restart block), and
// a per-run bloom filter over the keys' Hash values — in memory only,
// rebuilt with every run, so no hash is ever on disk. Lookups check the
// hot batch, then merge-on-lookup across runs newest-first: bloom
// test, binary-search the sparse index, read one block with ReadAt,
// and decode forward until the key passes the target. Because a key
// is only ever interned when absent from every run and from the hot
// batch, each key lives in exactly one place, and flushing never
// writes duplicates.
//
// IDs stay dense insertion-order, exactly like the arena Store: the
// hot batch always holds the contiguous ID range [flushedBase, total),
// so a flush writes IDs base+i for the i-th hot entry, stored per
// entry as a small uvarint delta. Engines that intern in canonical
// order therefore get the same ID sequence from either backend — the
// property the determinism argument rides on.
//
// The batch path, MergeIntern, resolves a whole sorted candidate set
// against the runs at once, in one galloping merge through the cursor
// (runCursor) that is also every lookup's and compaction's decoder.
//
// The number of runs is bounded by size-tiered compaction: a run is in
// tier ⌊log₄ size⌋, and whenever a run is registered and the newest
// runs in its tier or a smaller one number compactFanIn, they are
// merged — by the same cursors — into one run, its bloom filter and
// sparse index rebuilt from the merged stream. Runs that are neighbours
// in creation order hold neighbouring ID ranges, so the merged run holds
// one contiguous range and entry IDs never change. A run file is named
// after the first ID it holds; a merged run is written beside its
// inputs and renamed over the oldest of them once complete, and the
// others are unlinked then and not before.
//
// Runs are scratch state of one process: nothing reopens one, nothing
// is fsynced. Runs created under a caller-provided Dir are removed on
// Close; with Dir empty the Spill owns a temp directory and removes it
// wholesale.
//
// Concurrency matches Store: single-writer, with Probe views valid for
// concurrent reads only while the set is frozen. Flushing, merging and
// compacting all happen in the writer, never in a frozen phase. Disk
// and decode failures cannot surface through the Intern/Lookup
// signatures, so they latch on Err; engines poll Err at strides and
// level barriers.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/ioa"
)

// ErrCorruptRun reports a spill run file whose bytes do not decode
// cleanly — a truncated tail, an impossible shared-prefix length, a
// suffix past the file's end, an ID outside the run's range, keys out of
// order, a bad magic. The error latched on Err wraps it with the path.
var ErrCorruptRun = errors.New("store: corrupt spill run")

const (
	spillMagic     = "IOSPILL1"
	spillHeaderLen = int64(len(spillMagic))

	// DefaultSpillBudget is the hot-batch byte budget before a flush
	// when SpillOptions.MemBudget is zero.
	DefaultSpillBudget = 64 << 20

	defaultBlockEvery  = 16
	defaultBloomPerKey = 10
	blockMetaBytes     = 24 // one sparse-index entry, its first key aside

	// spillBufferSize is the run writer's buffer and the most a cursor
	// reads at once.
	spillBufferSize = 1 << 16

	// compactFanIn is k of the tiering rule: this many runs in one
	// tier are merged into one of the next.
	compactFanIn = 4
)

// SpillOptions parameterizes a disk-spilling seen set.
type SpillOptions struct {
	// Dir is the directory for run files. Empty means a fresh temp
	// directory owned (and removed on Close) by the Spill; a non-empty
	// Dir is created if needed and only the run files are removed.
	Dir string
	// MemBudget is the hot-batch byte budget that triggers a flush;
	// 0 means DefaultSpillBudget. Tests use tiny budgets to force many
	// runs on small systems. It bounds the hot batch (Batch.Footprint),
	// not the process: every run keeps a bloom filter and a sparse
	// index resident, which Stats.ResidentBytes reports.
	MemBudget int64
	// BlockEvery is the restart interval in entries (sparse-index
	// granularity); 0 means 16.
	BlockEvery int
	// Canon, when non-nil, canonicalizes states before encoding, as in
	// store.Options.
	Canon Canonicalizer
	// AfterFlush, when non-nil, runs after each run file — flushed,
	// merge-interned or compacted — is written and indexed, with the
	// run's path. Tests use it to damage a run and assert the clean
	// corruption error.
	AfterFlush func(path string)
}

// bloom is a fixed-size bloom filter fed the keys' Hash values, probed
// by double hashing; a probe's bit is the high word of its 64-bit value
// times the filter size — a multiply where a remainder would divide. It
// lives and dies with the process that built it.
type bloom struct {
	bits []uint64
	m    uint64
	k    int
}

func (b *bloom) pos(h, h2 uint64, i int) uint64 {
	pos, _ := bits.Mul64(h+uint64(i)*h2, b.m)
	return pos
}

func newBloom(n, bitsPerKey int) bloom {
	if n < 1 {
		n = 1
	}
	m := (uint64(n)*uint64(bitsPerKey) + 63) &^ 63
	return bloom{bits: make([]uint64, m/64), m: m, k: 6}
}

func (b *bloom) add(h uint64) {
	h2 := h>>17 | h<<47
	for i := 0; i < b.k; i++ {
		pos := b.pos(h, h2, i)
		b.bits[pos/64] |= 1 << (pos % 64)
	}
}

func (b *bloom) maybe(h uint64) bool {
	h2 := h>>17 | h<<47
	for i := 0; i < b.k; i++ {
		pos := b.pos(h, h2, i)
		if b.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// blockMeta locates one restart block: its file offset, where its first
// key starts in the run's key arena (it ends where the next block's
// starts), and that key's head8. The arena offset is an int for the
// same overflow reason as Batch.ends: a large MemBudget can push the
// first-key arena of a single run past 4 GiB of concatenated keys.
type blockMeta struct {
	off   int64
	first int
	head  uint64
}

// runMeta is one immutable sorted run on disk plus its in-memory
// sparse index and bloom filter. Its entries' IDs are exactly
// [base, base+count).
type runMeta struct {
	f      *os.File
	path   string
	size   int64 // total bytes written, header included
	count  int
	base   uint64 // entry ID = base + stored uvarint delta
	every  int    // entries a block, the last one aside
	blocks []blockMeta
	keys   []byte // arena backing blockMeta first keys
	filter bloom
}

func (r *runMeta) firstKey(b int) []byte {
	end := len(r.keys)
	if b+1 < len(r.blocks) {
		end = r.blocks[b+1].first
	}
	return r.keys[r.blocks[b].first:end]
}

// blockBounds returns the file offset and expected byte length of
// block b, derived from the recorded offsets and file size — which is
// how truncation shows up as a short read rather than silent absence.
func (r *runMeta) blockBounds(b int) (off, n int64) {
	off = r.blocks[b].off
	end := r.size
	if b+1 < len(r.blocks) {
		end = r.blocks[b+1].off
	}
	return off, end - off
}

// startsBy reports whether block b exists and starts at or before key,
// whose head8 is head.
func (r *runMeta) startsBy(b int, head uint64, key []byte) bool {
	return b < len(r.blocks) && (r.blocks[b].head < head || r.blocks[b].head == head && bytes.Compare(r.firstKey(b), key) <= 0)
}

// blockOf returns the last block at or after from that starts at or
// before key, or from-1 when there is none.
func (r *runMeta) blockOf(head uint64, key []byte, from int) int {
	return from - 1 + sort.Search(len(r.blocks)-from, func(i int) bool { return !r.startsBy(from+i, head, key) })
}

// tier is the run's size tier, ⌊log₄ size⌋.
func (r *runMeta) tier() int { return (bits.Len64(uint64(r.size)) - 1) / 2 }

func (r *runMeta) corrupt(detail string) error {
	return fmt.Errorf("%w: %s: %s", ErrCorruptRun, r.path, detail)
}

// shortRead is the corruption error of a ReadAt that returned m of the
// n bytes the run's recorded size promised at off.
func (r *runMeta) shortRead(off int64, m int, n int64, err error) error {
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("%w: %s: read %d of %d bytes at %d: %w", ErrCorruptRun, r.path, m, n, off, err)
}

// A Spill is the disk-spilling SeenSet implementation.
type Spill struct {
	opts       SpillOptions
	dir        string
	ownDir     bool
	canon      Canonicalizer
	budget     int64
	blockEvery int

	hot         Batch // always the contiguous ID range [flushedBase, total)
	total       uint64
	flushedBase uint64
	runs        []*runMeta // in creation order, which is ID order

	spilledBytes int64 // live run files
	scratch      []byte
	lookup       runCursor // the writer's point lookups

	cursors []*runCursor  // idle cursors: their buffers outlive a merge
	wbuf    *bufio.Writer // the one run writer's buffer

	// Counters behind Stats. Lookups run concurrently in frozen phases,
	// so what they touch is atomic.
	compactions    int64
	merges         int64 // MergeIntern calls
	mergeCands     int64 // and the candidates they brought
	entriesDecoded atomic.Int64
	blocksRead     atomic.Int64
	bloomFalse     atomic.Int64

	errMu  sync.Mutex
	err    error
	closed bool
}

// NewSpill builds an empty disk-spilling seen set.
func NewSpill(opts SpillOptions) (*Spill, error) {
	dir, ownDir := opts.Dir, false
	if dir == "" {
		d, err := os.MkdirTemp("", "ioaspill-*")
		if err != nil {
			return nil, fmt.Errorf("store: spill dir: %w", err)
		}
		dir, ownDir = d, true
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: spill dir: %w", err)
	}
	sp := &Spill{
		opts:       opts,
		dir:        dir,
		ownDir:     ownDir,
		canon:      opts.Canon,
		budget:     opts.MemBudget,
		blockEvery: opts.BlockEvery,
	}
	if sp.budget <= 0 {
		sp.budget = DefaultSpillBudget
	}
	if sp.blockEvery <= 0 {
		sp.blockEvery = defaultBlockEvery
	}
	return sp, nil
}

// Canon returns the set's canonicalizer (nil without symmetry).
func (sp *Spill) Canon() Canonicalizer { return sp.canon }

// AppendCanonical appends the canonical encoding of s to dst, exactly
// as Store.AppendCanonical.
func (sp *Spill) AppendCanonical(dst []byte, s ioa.State) []byte {
	if sp.canon != nil {
		s = sp.canon.Canonical(s)
	}
	return ioa.AppendState(dst, s)
}

// Len returns the number of interned states (hot + spilled).
func (sp *Spill) Len() int { return int(sp.total) }

// Stats summarizes occupancy: the hot arena, the live runs, what all of
// it holds resident, and the read-side counters.
func (sp *Spill) Stats() Stats {
	resident := sp.hot.Resident()
	for _, r := range sp.runs {
		resident += 8*int64(cap(r.filter.bits)) + blockMetaBytes*int64(cap(r.blocks)) + int64(cap(r.keys))
	}
	for _, c := range sp.cursors {
		resident += int64(cap(c.buf) + cap(c.key))
	}
	return Stats{
		States:              int(sp.total),
		ArenaBytes:          sp.hot.Bytes(),
		ArenaCapBytes:       int64(cap(sp.hot.arena)),
		SpilledStates:       int(sp.flushedBase),
		SpilledBytes:        sp.spilledBytes,
		SpillRuns:           len(sp.runs),
		ResidentBytes:       resident,
		Compactions:         sp.compactions,
		Merges:              sp.merges,
		MergeCandidates:     sp.mergeCands,
		EntriesDecoded:      sp.entriesDecoded.Load(),
		BlocksRead:          sp.blocksRead.Load(),
		BloomFalsePositives: sp.bloomFalse.Load(),
	}
}

// Err returns the first latched I/O or corruption error.
func (sp *Spill) Err() error {
	sp.errMu.Lock()
	defer sp.errMu.Unlock()
	return sp.err
}

func (sp *Spill) setErr(err error) {
	if err == nil {
		return
	}
	sp.errMu.Lock()
	if sp.err == nil {
		sp.err = err
	}
	sp.errMu.Unlock()
}

// Intern encodes s (canonicalizing when configured), dedups it against
// the hot batch and every run, and returns its dense ID plus whether
// it was new. After a latched error it returns (None, false); callers
// observe the failure through Err.
func (sp *Spill) Intern(s ioa.State) (ID, bool) {
	sp.scratch = sp.AppendCanonical(sp.scratch[:0], s)
	return sp.InternEncoded(sp.scratch, Hash(sp.scratch))
}

// InternEncoded interns already-canonical bytes given their Hash. The
// bytes are copied before it returns.
func (sp *Spill) InternEncoded(enc []byte, hash uint64) (ID, bool) {
	if sp.Err() != nil {
		return None, false
	}
	if id, ok := sp.search(enc, hash, &sp.lookup); ok {
		return id, false
	}
	if sp.Err() != nil {
		return None, false
	}
	id := ID(sp.total)
	sp.hot.Add(enc, hash)
	sp.total++
	if sp.hot.Footprint() >= sp.budget {
		sp.Flush() // a failure latches on Err
	}
	return id, true
}

// Has reports membership without interning. Writer-side only.
func (sp *Spill) Has(s ioa.State) (ID, bool) {
	sp.scratch = sp.AppendCanonical(sp.scratch[:0], s)
	return sp.search(sp.scratch, Hash(sp.scratch), &sp.lookup)
}

// search is the merge-on-lookup membership path: hot batch first, then
// runs newest-first through the caller's cursor. Disk errors latch on
// Err and report not-found.
func (sp *Spill) search(enc []byte, hash uint64, c *runCursor) (ID, bool) {
	if i, ok := sp.hot.Lookup(enc, hash); ok {
		return ID(sp.flushedBase + uint64(i)), true
	}
	id, ok, err := sp.searchRuns(enc, c)
	sp.setErr(err)
	return id, ok
}

// searchRuns probes the runs newest-first. The filters are asked about
// Hash(enc) as the Spill computes it, not about the hash the caller
// interned enc under: a compacted run's filter is rebuilt from its keys
// alone, so that is the one hash every filter can have been fed.
func (sp *Spill) searchRuns(enc []byte, c *runCursor) (ID, bool, error) {
	if len(sp.runs) == 0 {
		return None, false, nil
	}
	hash := Hash(enc)
	for i := len(sp.runs) - 1; i >= 0; i-- {
		if id, ok, err := sp.searchRun(sp.runs[i], enc, hash, c); ok || err != nil {
			return id, ok, err
		}
	}
	return None, false, nil
}

// searchRun looks enc up in one run: the filter first, so that a miss
// costs no more, then the cursor, which asks it again and seeks.
func (sp *Spill) searchRun(r *runMeta, enc []byte, hash uint64, c *runCursor) (ID, bool, error) {
	if !r.filter.maybe(hash) {
		return None, false, nil
	}
	c.reset(r)
	ok, err := c.find(head8(enc), enc, &hash)
	sp.account(c)
	if !ok || err != nil {
		return None, false, err
	}
	return ID(c.id), true, nil
}

// account moves what a cursor counted to the Spill's totals.
func (sp *Spill) account(c *runCursor) {
	sp.entriesDecoded.Add(c.decoded)
	sp.blocksRead.Add(c.reads)
	sp.bloomFalse.Add(c.misses)
	c.decoded, c.reads, c.misses = 0, 0, 0
}

// runWriter streams one sorted run to disk, building the sparse index
// and the bloom filter — over Hash of each key — as it goes.
type runWriter struct {
	sp     *Spill
	f      *os.File
	path   string
	w      *bufio.Writer
	off    int64
	prev   []byte
	count  int
	base   uint64
	blocks []blockMeta
	keys   []byte
	filter bloom
	tmp    [binary.MaxVarintLen64]byte
}

// runPath names the run whose first ID is base.
func (sp *Spill) runPath(base uint64) string {
	return filepath.Join(sp.dir, fmt.Sprintf("run%012d.spill", base))
}

// newRunWriter starts a run of IDs from base at path, sized for count
// entries at most.
func (sp *Spill) newRunWriter(path string, base uint64, count int) (*runWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("store: spill run: %w", err)
	}
	if sp.wbuf == nil {
		sp.wbuf = bufio.NewWriterSize(f, spillBufferSize)
	} else {
		sp.wbuf.Reset(f)
	}
	rw := &runWriter{sp: sp, f: f, path: path, base: base, w: sp.wbuf, filter: newBloom(count, defaultBloomPerKey)}
	rw.blocks = make([]blockMeta, 0, (count+sp.blockEvery-1)/sp.blockEvery)
	rw.w.WriteString(spillMagic)
	rw.off = spillHeaderLen
	return rw, nil
}

func (rw *runWriter) putUvarint(v uint64) {
	n := binary.PutUvarint(rw.tmp[:], v)
	rw.w.Write(rw.tmp[:n])
	rw.off += int64(n)
}

func (rw *runWriter) add(key []byte, id uint64) {
	shared := 0
	if rw.count%rw.sp.blockEvery == 0 {
		rw.blocks = append(rw.blocks, blockMeta{
			off:   rw.off,
			first: len(rw.keys),
			head:  head8(key),
		})
		rw.keys = append(rw.keys, key...)
	} else {
		n := min(len(rw.prev), len(key))
		for shared < n && rw.prev[shared] == key[shared] {
			shared++
		}
	}
	rw.putUvarint(uint64(shared))
	rw.putUvarint(uint64(len(key) - shared))
	rw.w.Write(key[shared:])
	rw.off += int64(len(key) - shared)
	rw.putUvarint(id - rw.base)
	rw.prev = append(rw.prev[:0], key...)
	rw.filter.add(Hash(key))
	rw.count++
}

// abandon drops a run that will not be finished.
func (rw *runWriter) abandon() {
	rw.f.Close()
	os.Remove(rw.path)
}

// finish flushes the file. The run is not yet part of the set: register
// adds it.
func (rw *runWriter) finish() (*runMeta, error) {
	if err := rw.w.Flush(); err != nil {
		rw.abandon()
		return nil, fmt.Errorf("store: spill run %s: %w", rw.path, err)
	}
	return &runMeta{
		f:      rw.f,
		path:   rw.path,
		size:   rw.off,
		count:  rw.count,
		base:   rw.base,
		every:  rw.sp.blockEvery,
		blocks: rw.blocks,
		keys:   rw.keys,
		filter: rw.filter,
	}, nil
}

// addRun makes a finished run the set's newest and fires the
// AfterFlush hook.
func (sp *Spill) addRun(r *runMeta) {
	sp.runs = append(sp.runs, r)
	sp.spilledBytes += r.size
	if sp.opts.AfterFlush != nil {
		sp.opts.AfterFlush(r.path)
	}
}

// register adds a freshly written run and compacts whatever it
// completes a tier of.
func (sp *Spill) register(r *runMeta) error {
	sp.addRun(r)
	return sp.compact()
}

// Flush writes the hot batch (sorted by key) as one new run and resets
// it. A no-op on an empty batch. A failure — of the write or of the
// compaction the new run set off — latches on Err.
func (sp *Spill) Flush() error {
	err := sp.flush()
	sp.setErr(err)
	return err
}

func (sp *Spill) flush() error {
	if sp.hot.Len() == 0 {
		return nil
	}
	rw, err := sp.newRunWriter(sp.runPath(sp.flushedBase), sp.flushedBase, sp.hot.Len())
	if err != nil {
		return err
	}
	for _, i := range sp.hot.Order() {
		rw.add(sp.hot.Key(i), sp.flushedBase+uint64(i))
	}
	r, err := rw.finish()
	if err != nil {
		return err
	}
	sp.flushedBase = sp.total
	sp.hot.Reset()
	return sp.register(r)
}

// compact applies the tiering rule until it no longer fires: take the
// newest run's tier and the newest runs that are all in that tier or a
// smaller one; when they number compactFanIn, merge them. In the usual
// case that is exactly compactFanIn runs of one tier; a small run left
// behind a larger, newer one is swept up with it rather than stranded.
// Every tier therefore ends with fewer than compactFanIn runs, and the
// set with O(log size) of them.
func (sp *Spill) compact() error {
	for {
		n := len(sp.runs)
		t, m := sp.runs[n-1].tier(), 1
		for m < n && sp.runs[n-1-m].tier() <= t {
			m++
		}
		if m < compactFanIn {
			return nil
		}
		if err := sp.mergeNewest(m); err != nil {
			return err
		}
	}
}

// mergeNewest replaces the newest m runs by their merge. The inputs
// hold neighbouring ID ranges (the hot batch is always [flushedBase,
// total), and a run is always cut from its front), so the output holds
// their union, a contiguous range from the oldest input's base, and
// takes that input's name. Inputs are closed and unlinked only once the
// output is complete; on any earlier failure they are left as they
// were.
func (sp *Spill) mergeNewest(m int) error {
	in := sp.runs[len(sp.runs)-m:]
	out, err := sp.writeMerged(in)
	if err != nil {
		return err
	}
	var errs []error
	for _, r := range in {
		errs = append(errs, r.f.Close())
		sp.spilledBytes -= r.size
	}
	if err := os.Rename(out.path, in[0].path); err != nil {
		errs = append(errs, err, os.Remove(in[0].path))
	} else {
		out.path = in[0].path
	}
	for _, r := range in[1:] {
		errs = append(errs, os.Remove(r.path))
	}
	sp.runs = sp.runs[:len(sp.runs)-m]
	sp.compactions++
	sp.addRun(out)
	return errors.Join(errs...)
}

// writeMerged writes the merge of runs beside them and returns it
// finished, not yet named or added.
func (sp *Spill) writeMerged(in []*runMeta) (*runMeta, error) {
	count := 0
	for i, r := range in {
		if i > 0 && r.base != in[i-1].base+uint64(in[i-1].count) {
			return nil, fmt.Errorf("store: spill runs %s and %s do not hold neighbouring IDs", in[i-1].path, r.path)
		}
		count += r.count
	}
	curs, err := sp.openCursors(in)
	defer sp.closeCursors(curs)
	if err != nil {
		return nil, err
	}
	for _, c := range curs {
		if err := c.next(); err != nil {
			return nil, err
		}
	}
	rw, err := sp.newRunWriter(in[0].path+".merge", in[0].base, count)
	if err != nil {
		return nil, err
	}
	for {
		var least *runCursor
		for _, c := range curs {
			if c.done {
				continue
			}
			if least != nil {
				switch c.compare(least.head, least.key) {
				case 0:
					rw.abandon()
					return nil, c.r.corrupt(fmt.Sprintf("key %q is also in %s", c.key, least.r.path))
				case 1:
					continue
				}
			}
			least = c
		}
		if least == nil {
			return rw.finish()
		}
		rw.add(least.key, least.id)
		if err := least.next(); err != nil {
			rw.abandon()
			return nil, err
		}
	}
}

// spillProbe is the frozen-phase concurrent read view: its own encoding
// buffer and cursor over the shared immutable run set.
type spillProbe struct {
	sp  *Spill
	buf []byte
	cur runCursor
}

// Probe returns a fresh probe; each concurrent goroutine needs its
// own.
func (sp *Spill) Probe() MemberProbe { return &spillProbe{sp: sp} }

// Lookup reports membership as Probe.Lookup does; disk errors latch on
// the Spill's Err and report not-found.
func (p *spillProbe) Lookup(s ioa.State) (ID, uint64, bool) {
	p.buf = p.sp.AppendCanonical(p.buf[:0], s)
	h := Hash(p.buf)
	id, ok := p.sp.search(p.buf, h, &p.cur)
	return id, h, ok
}

// Bytes returns the canonical encoding from the most recent Lookup,
// valid until the next Lookup on this probe.
func (p *spillProbe) Bytes() []byte { return p.buf }

// runCursor is the one decoder of a run: compaction walks a run front to
// back with it, merges and lookups seek it to the blocks their keys fall
// in. It reads with ReadAt — one block at a seek, buffer-sized pieces
// once decoding runs past what is buffered; key is the current entry's,
// head its first eight bytes as Batch.Order compares them, id its ID,
// blk its block.
type runCursor struct {
	r      *runMeta
	buf    []byte // buf[:hi] is the file up to off; buf[lo:hi] is not yet decoded
	lo, hi int
	off    int64 // file offset the next read starts at
	key    []byte
	head   uint64
	id     uint64
	blk    int
	left   int  // entries not yet decoded
	blkEnd int  // left once blk's last entry is decoded
	fresh  bool // no entry decoded since the open or the seek
	done   bool // moved past the last entry

	decoded, reads, misses int64 // for Stats
}

// reset puts the cursor before the first entry of r, nothing buffered.
func (c *runCursor) reset(r *runMeta) {
	c.r, c.lo, c.hi, c.off = r, 0, 0, 0
	c.key, c.blk, c.left, c.blkEnd, c.fresh, c.done = c.key[:0], -1, r.count, r.count, true, false
}

// openCursors opens a cursor before the first entry of each of runs,
// asking each file for its length and reading its magic: a truncated or
// re-headed run fails every merge, whatever it would have decoded. The
// cursors opened so far are returned with an error, for closeCursors.
func (sp *Spill) openCursors(runs []*runMeta) ([]*runCursor, error) {
	curs := make([]*runCursor, 0, len(runs))
	for _, r := range runs {
		var c *runCursor
		if n := len(sp.cursors); n > 0 {
			c, sp.cursors = sp.cursors[n-1], sp.cursors[:n-1]
		} else {
			c = new(runCursor)
		}
		if want := min(spillBufferSize, r.size); int64(cap(c.buf)) < want {
			c.buf = make([]byte, want)
		}
		c.buf = c.buf[:cap(c.buf)]
		c.reset(r)
		curs = append(curs, c)
		fi, err := r.f.Stat()
		if err != nil {
			return curs, fmt.Errorf("store: spill run %s: %w", r.path, err)
		}
		if fi.Size() < r.size {
			return curs, r.shortRead(fi.Size(), 0, r.size-fi.Size(), nil)
		}
		if m, err := r.f.ReadAt(c.buf[:spillHeaderLen], 0); m < len(spillMagic) {
			return curs, r.shortRead(0, m, spillHeaderLen, err)
		}
		if string(c.buf[:spillHeaderLen]) != spillMagic {
			return curs, r.corrupt("bad magic")
		}
		c.lo, c.hi, c.off = len(spillMagic), len(spillMagic), spillHeaderLen
	}
	return curs, nil
}

// closeCursors returns cursors to the idle list.
func (sp *Spill) closeCursors(curs []*runCursor) {
	for _, c := range curs {
		sp.account(c)
		c.r = nil
	}
	sp.cursors = append(sp.cursors, curs...)
}

// find moves the cursor to key, or no further than the first key past
// it, and reports whether the run holds key; a merge asks one cursor for
// increasing keys. Decoding forward reaches key in the cursor's block or
// the next; a key farther on, or asked of a cursor on no entry, is put
// to the run's filter and, on a "maybe", sought in the one block that
// can hold it. hash is Hash(key), or 0 until a filter first asks.
func (c *runCursor) find(head uint64, key []byte, hash *uint64) (bool, error) {
	b := 0
	if !c.fresh {
		if cmp := c.compare(head, key); cmp >= 0 {
			return cmp == 0, nil
		}
		for b = c.blk; b <= c.blk+1; b++ {
			if !c.r.startsBy(b+1, head, key) {
				return c.decodeTo(b, head, key)
			}
		}
	}
	if *hash == 0 {
		*hash = Hash(key)
	}
	if !c.r.filter.maybe(*hash) {
		return false, nil
	}
	if b = c.r.blockOf(head, key, b); b >= 0 {
		if err := c.seek(b); err != nil {
			return false, err
		}
		if found, err := c.decodeTo(b, head, key); found || err != nil {
			return found, err
		}
	}
	c.misses++
	return false, nil
}

// seek puts the cursor before the first entry of block b. A block that
// starts inside the buffered window costs no read; any other is read
// alone, by its recorded bounds.
func (c *runCursor) seek(b int) error {
	off, n := c.r.blockBounds(b)
	if start := c.off - int64(c.hi); off >= start && off < c.off {
		c.lo = int(off - start)
	} else {
		if int64(len(c.buf)) < n {
			c.buf = make([]byte, n)
		}
		c.reads++
		if m, err := c.r.f.ReadAt(c.buf[:n], off); int64(m) < n {
			return c.r.shortRead(off, m, n, err)
		}
		c.lo, c.hi, c.off = 0, int(n), off+n
	}
	c.left = c.r.count - b*c.r.every
	c.key, c.blk, c.blkEnd, c.fresh = c.key[:0], b-1, c.left, true
	return nil
}

// decodeTo decodes forward from below key until an entry is at or past
// key or block b ends, and reports whether the run holds key.
func (c *runCursor) decodeTo(b int, head uint64, key []byte) (bool, error) {
	for c.blk < b || c.left != c.blkEnd {
		if err := c.next(); err != nil {
			return false, err
		}
		if c.head >= head {
			if cmp := c.compare(head, key); cmp >= 0 {
				return cmp == 0, nil
			}
		}
	}
	return false, nil
}

// next advances to the following entry, setting done past the last. It
// decodes from the window and reads on only when the entry runs past
// it, so a seek reads its block and no more.
func (c *runCursor) next() error {
	if c.left == 0 {
		c.done = true
		return nil
	}
	win := c.buf[c.lo:c.hi]
	shared, n := binary.Uvarint(win)
	if n <= 0 {
		return c.short(n, "bad shared-prefix varint")
	}
	pos := n
	sufLen, n := binary.Uvarint(win[pos:])
	if n <= 0 {
		return c.short(n, "bad suffix-length varint")
	}
	pos += n
	if shared > uint64(len(c.key)) {
		return c.r.corrupt("shared prefix exceeds previous key")
	}
	if uint64(len(win)-pos) < sufLen {
		// What the file still holds bounds the suffix before anything is
		// sized by it: a hostile length allocates nothing.
		if rest := int64(len(win)-pos) + c.r.size - c.off; sufLen > uint64(rest) {
			return c.r.corrupt("truncated key suffix")
		}
		return c.more(pos + int(sufLen) + binary.MaxVarintLen64)
	}
	suffix := win[pos : pos+int(sufLen)]
	pos += int(sufLen)
	delta, n := binary.Uvarint(win[pos:])
	if n <= 0 {
		return c.short(n, "bad id varint")
	}
	// A run's keys strictly increase. Past the shared prefix the first
	// byte nearly always says so; a restart point shares nothing and may
	// need the whole comparison.
	if old := c.key[shared:]; !c.fresh && !(len(suffix) > 0 && (len(old) == 0 || suffix[0] > old[0])) &&
		bytes.Compare(suffix, old) <= 0 {
		return c.r.corrupt("keys not strictly increasing")
	}
	if delta >= uint64(c.r.count) {
		return c.r.corrupt("id delta out of range")
	}
	c.key = append(c.key[:shared], suffix...)
	c.lo += pos + n
	c.id = c.r.base + delta
	if shared < 8 {
		c.head = head8(c.key)
	}
	if c.left == c.blkEnd {
		c.blk, c.blkEnd = c.blk+1, max(c.left-c.r.every, 0)
	}
	c.left--
	c.decoded++
	c.fresh = false
	return nil
}

// short answers for a varint next could not read (n ≤ 0): one the window
// cut off reads on, an overflowed one or the file's end is corrupt.
func (c *runCursor) short(n int, detail string) error {
	if n == 0 && c.off < c.r.size {
		return c.more(c.hi - c.lo + 1)
	}
	return c.r.corrupt(detail)
}

// more moves the undecoded bytes to the front of the buffer — a larger
// one when need bytes do not fit —, reads on up to the run's recorded
// size, and decodes the entry again. A file shorter than that is corrupt.
func (c *runCursor) more(need int) error {
	buf := c.buf
	if need > len(buf) {
		buf = make([]byte, need)
	}
	c.buf, c.hi, c.lo = buf, copy(buf, c.buf[c.lo:c.hi]), 0
	want := min(int64(len(c.buf)-c.hi), c.r.size-c.off)
	if m, err := c.r.f.ReadAt(c.buf[c.hi:c.hi+int(want)], c.off); int64(m) < want {
		return c.r.shortRead(c.off, m, want, err)
	}
	c.hi += int(want)
	c.off += want
	return c.next()
}

// compare orders the cursor's key against key, whose head8 is head: an
// integer compare, and bytes.Compare only when the words tie.
func (c *runCursor) compare(head uint64, key []byte) int {
	if c.head != head {
		if c.head < head {
			return -1
		}
		return 1
	}
	return bytes.Compare(c.key, key)
}

// MergeIntern takes a set of distinct canonical encodings, filters out
// the members, interns the fresh remainder in the batch's Order as one
// new sorted run, and hands each fresh encoding and its assigned ID to
// emit before moving on. This is the batch interning path for
// external-memory BFS: at a level barrier the hot batch is flushed and
// every candidate resolved against all prior levels at once (absent)
// before anything is written or emitted. The enc slice passed to emit
// is only valid during the call.
func (sp *Spill) MergeIntern(cands *Batch, emit func(enc []byte, id ID) error) (int, error) {
	if err := sp.Err(); err != nil {
		return 0, err
	}
	fresh, err := sp.mergeIntern(cands, emit)
	sp.setErr(err)
	return fresh, err
}

func (sp *Spill) mergeIntern(cands *Batch, emit func(enc []byte, id ID) error) (fresh int, err error) {
	if err := sp.flush(); err != nil {
		return 0, err
	}
	sp.merges++
	sp.mergeCands += int64(cands.Len())
	news, err := sp.absent(cands)
	if err != nil || len(news) == 0 {
		return 0, err
	}
	rw, err := sp.newRunWriter(sp.runPath(sp.total), sp.total, len(news))
	if err != nil {
		return 0, err
	}
	for _, i := range news {
		id := ID(sp.total)
		rw.add(cands.Key(i), sp.total)
		sp.total++
		fresh++
		if emit != nil {
			if err = emit(cands.Key(i), id); err != nil {
				break
			}
		}
	}
	r, ferr := rw.finish()
	sp.flushedBase = sp.total
	if ferr == nil {
		ferr = sp.register(r)
	}
	if err == nil {
		err = ferr
	}
	return fresh, err
}

// absent returns the candidates no run holds, in Order and over the
// slice Order returned: one galloping merge, each run's cursor meeting
// the candidates in order (runCursor.find).
func (sp *Spill) absent(cands *Batch) ([]int, error) {
	order := cands.Order()
	curs, err := sp.openCursors(sp.runs)
	defer sp.closeCursors(curs)
	if err != nil {
		return nil, err
	}
	news := order[:0]
	for _, i := range order {
		key, head := cands.Key(i), cands.heads[i]
		seen, hash := false, uint64(0) // Hash(key), taken when a filter first asks
		for _, c := range curs {
			if seen, err = c.find(head, key, &hash); seen || err != nil {
				break
			}
		}
		if err != nil {
			return nil, err
		}
		if !seen {
			news = append(news, i)
		}
	}
	return news, nil
}

// Close closes every run file and removes the spill directory (when
// owned) or just the run files (when the caller provided Dir).
func (sp *Spill) Close() error {
	if sp.closed {
		return nil
	}
	sp.closed = true
	var errs []error
	for _, r := range sp.runs {
		errs = append(errs, r.f.Close())
		if !sp.ownDir {
			errs = append(errs, os.Remove(r.path))
		}
	}
	if sp.ownDir {
		errs = append(errs, os.RemoveAll(sp.dir))
	}
	return errors.Join(errs...)
}

var _ SeenSet = (*Spill)(nil)
