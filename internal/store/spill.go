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
// against the runs at once, by whichever of two ways costs less for
// that set: one sequential pass over every run through block-decoding
// cursors (runCursor), or one point lookup per candidate when the
// candidates are few beside what the runs hold.
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
// cleanly — a truncated tail, an impossible shared-prefix length, an
// entry overrunning its block, an ID outside the run's range, keys out
// of order. The error latched on Err wraps it with the run path.
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

// What MergeIntern's two arms cost, in nanoseconds, as
// BenchmarkSpillMerge reads them on the 2-vCPU development host
// (EXPERIMENTS.md E30; 16 807 five-byte keys in 9 runs, 2 101
// candidates). Scanning pays scanEntryNS for every entry the runs hold:
// the scan arm's 470 µs over 16 807 entries, opening the cursors and
// sweeping them per candidate included. Probing pays, per candidate,
// probeRunNS for every run — the miss arm's 180 ns over 9 runs: a filter
// test, and the filters' false positives' share of a block read — and
// one probeReadNS — the probe arm's 700 ns less its filter tests: the
// sparse index, one ReadAt, half a block decoded — on the assumption
// that the candidate is in some run, which is the dear case. They are
// measurements, not knobs: only their ratios matter, and the rule is
// flat near the break-even.
const (
	scanEntryNS = 28
	probeRunNS  = 20
	probeReadNS = 600
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
	m := uint64(n) * uint64(bitsPerKey)
	m = (m + 63) &^ 63
	if m == 0 {
		m = 64
	}
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

// blockMeta locates one restart block: its file offset and its first
// key (a slice into the run's key arena). The key bounds are int for
// the same overflow reason as Batch.ends: a large MemBudget can push
// the first-key arena of a single run past 4 GiB of concatenated keys.
type blockMeta struct {
	off     int64
	firstLo int
	firstHi int
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
	blocks []blockMeta
	keys   []byte // arena backing blockMeta first keys
	filter bloom
}

func (r *runMeta) firstKey(b int) []byte {
	bm := r.blocks[b]
	return r.keys[bm.firstLo:bm.firstHi]
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

// mergeArm names the two ways MergeIntern resolves a candidate set.
type mergeArm int

const (
	armByCost mergeArm = iota
	armScan
	armProbe
)

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
	lkBlock      []byte // writer-side search scratch
	lkKey        []byte

	cursors []*runCursor  // idle cursors: their buffers outlive a merge
	wbuf    *bufio.Writer // the one run writer's buffer
	hashes  []uint64      // a merge-interned run's bloom feed

	// Counters behind Stats. Lookups run concurrently in frozen phases,
	// so what they touch is atomic.
	compactions    int64
	merges         int64 // MergeIntern calls,
	mergeCands     int64 // the candidates they brought,
	mergesProbed   int64 // and how many were resolved by lookups
	entriesDecoded atomic.Int64
	blocksRead     atomic.Int64
	bloomFalse     atomic.Int64

	forceArm mergeArm // tests pin MergeIntern's arm; zero decides by cost

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
		Shards:              1,
		SpilledStates:       int(sp.flushedBase),
		SpilledBytes:        sp.spilledBytes,
		SpillRuns:           len(sp.runs),
		ResidentBytes:       resident,
		Compactions:         sp.compactions,
		Merges:              sp.merges,
		MergeCandidates:     sp.mergeCands,
		MergesProbed:        sp.mergesProbed,
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
	if id, ok := sp.search(enc, hash, &sp.lkBlock, &sp.lkKey); ok {
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
	return sp.search(sp.scratch, Hash(sp.scratch), &sp.lkBlock, &sp.lkKey)
}

// search is the merge-on-lookup membership path: hot batch first, then
// runs newest-first. Disk errors latch on Err and report not-found.
func (sp *Spill) search(enc []byte, hash uint64, blockBuf, keyBuf *[]byte) (ID, bool) {
	if i, ok := sp.hot.Lookup(enc, hash); ok {
		return ID(sp.flushedBase + uint64(i)), true
	}
	id, ok, err := sp.searchRuns(enc, blockBuf, keyBuf)
	sp.setErr(err)
	return id, ok
}

// searchRuns probes the runs newest-first. The filters are asked about
// Hash(enc) as the Spill computes it, not about the hash the caller
// interned enc under: a compacted run's filter is rebuilt from its keys
// alone, so that is the one hash every filter can have been fed.
func (sp *Spill) searchRuns(enc []byte, blockBuf, keyBuf *[]byte) (ID, bool, error) {
	if len(sp.runs) == 0 {
		return None, false, nil
	}
	hash := Hash(enc)
	for i := len(sp.runs) - 1; i >= 0; i-- {
		if id, ok, err := sp.searchRun(sp.runs[i], enc, hash, blockBuf, keyBuf); ok || err != nil {
			return id, ok, err
		}
	}
	return None, false, nil
}

// searchRun probes one run: bloom, sparse index, one block read,
// forward decode. It is the one point-lookup decoder.
func (sp *Spill) searchRun(r *runMeta, enc []byte, hash uint64, blockBuf, keyBuf *[]byte) (ID, bool, error) {
	if r.count == 0 || !r.filter.maybe(hash) {
		return None, false, nil
	}
	id, ok, err := sp.searchBlock(r, enc, blockBuf, keyBuf)
	if !ok && err == nil {
		sp.bloomFalse.Add(1)
	}
	return id, ok, err
}

// searchBlock looks enc up in the one block of r that can hold it.
func (sp *Spill) searchBlock(r *runMeta, enc []byte, blockBuf, keyBuf *[]byte) (ID, bool, error) {
	// Last block whose first key is <= enc.
	b := sort.Search(len(r.blocks), func(i int) bool {
		return bytes.Compare(r.firstKey(i), enc) > 0
	}) - 1
	if b < 0 {
		return None, false, nil
	}
	off, n := r.blockBounds(b)
	buf := *blockBuf
	if int64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	*blockBuf = buf
	sp.blocksRead.Add(1)
	if m, err := r.f.ReadAt(buf, off); int64(m) < n {
		return None, false, r.shortRead(off, m, n, err)
	}
	key := (*keyBuf)[:0]
	decoded := int64(0)
	defer func() {
		*keyBuf = key
		sp.entriesDecoded.Add(decoded)
	}()
	corrupt := func(detail string) error {
		return r.corrupt(fmt.Sprintf("block at %d: %s", off, detail))
	}
	pos, first := 0, true
	for pos < len(buf) {
		shared, n1 := binary.Uvarint(buf[pos:])
		if n1 <= 0 {
			return None, false, corrupt("bad shared-prefix varint")
		}
		pos += n1
		sufLen, n2 := binary.Uvarint(buf[pos:])
		if n2 <= 0 {
			return None, false, corrupt("bad suffix-length varint")
		}
		pos += n2
		if (first && shared != 0) || shared > uint64(len(key)) {
			return None, false, corrupt("shared prefix exceeds previous key")
		}
		if uint64(len(buf)-pos) < sufLen {
			return None, false, corrupt("entry overruns block")
		}
		key = append(key[:shared], buf[pos:pos+int(sufLen)]...)
		pos += int(sufLen)
		delta, n3 := binary.Uvarint(buf[pos:])
		if n3 <= 0 {
			return None, false, corrupt("bad id varint")
		}
		pos += n3
		if delta >= uint64(r.count) {
			return None, false, corrupt("id delta out of range")
		}
		first = false
		decoded++
		switch bytes.Compare(key, enc) {
		case 0:
			return ID(r.base + delta), true, nil
		case 1:
			return None, false, nil
		}
	}
	return None, false, nil
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
	// sized is set when the entry count was known up front: the filter
	// is then fed directly; otherwise the hashes wait in sp.hashes until
	// finish knows how many there are.
	sized  bool
	filter bloom
	tmp    [binary.MaxVarintLen64]byte
}

// runPath names the run whose first ID is base.
func (sp *Spill) runPath(base uint64) string {
	return filepath.Join(sp.dir, fmt.Sprintf("run%012d.spill", base))
}

// newRunWriter starts a run of IDs from base at path; count is the
// number of entries to come, negative when unknown.
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
	rw := &runWriter{sp: sp, f: f, path: path, base: base, w: sp.wbuf}
	if count >= 0 {
		rw.sized, rw.filter = true, newBloom(count, defaultBloomPerKey)
		rw.blocks = make([]blockMeta, 0, (count+sp.blockEvery-1)/sp.blockEvery)
	}
	sp.hashes = sp.hashes[:0]
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
	shared, hash := 0, Hash(key)
	if rw.count%rw.sp.blockEvery == 0 {
		rw.blocks = append(rw.blocks, blockMeta{
			off:     rw.off,
			firstLo: len(rw.keys),
			firstHi: len(rw.keys) + len(key),
		})
		rw.keys = append(rw.keys, key...)
	} else {
		max := len(rw.prev)
		if len(key) < max {
			max = len(key)
		}
		for shared < max && rw.prev[shared] == key[shared] {
			shared++
		}
	}
	rw.putUvarint(uint64(shared))
	rw.putUvarint(uint64(len(key) - shared))
	rw.w.Write(key[shared:])
	rw.off += int64(len(key) - shared)
	rw.putUvarint(id - rw.base)
	rw.prev = append(rw.prev[:0], key...)
	if rw.sized {
		rw.filter.add(hash)
	} else {
		rw.sp.hashes = append(rw.sp.hashes, hash)
	}
	rw.count++
}

// abandon drops a run that will not be finished.
func (rw *runWriter) abandon() {
	rw.f.Close()
	os.Remove(rw.path)
}

// finish flushes the file and completes the bloom filter. The run is
// not yet part of the set: register adds it.
func (rw *runWriter) finish() (*runMeta, error) {
	if err := rw.w.Flush(); err != nil {
		rw.abandon()
		return nil, fmt.Errorf("store: spill run %s: %w", rw.path, err)
	}
	if !rw.sized {
		rw.filter = newBloom(rw.count, defaultBloomPerKey)
		for _, h := range rw.sp.hashes {
			rw.filter.add(h)
		}
	}
	return &runMeta{
		f:      rw.f,
		path:   rw.path,
		size:   rw.off,
		count:  rw.count,
		base:   rw.base,
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

// spillProbe is the frozen-phase concurrent read view: its own
// encoding, block, and key buffers over the shared immutable run set.
type spillProbe struct {
	sp    *Spill
	buf   []byte
	block []byte
	key   []byte
}

// Probe returns a fresh probe; each concurrent goroutine needs its
// own.
func (sp *Spill) Probe() MemberProbe { return &spillProbe{sp: sp} }

// Lookup reports membership as Probe.Lookup does; disk errors latch on
// the Spill's Err and report not-found.
func (p *spillProbe) Lookup(s ioa.State) (ID, uint64, bool) {
	p.buf = p.sp.AppendCanonical(p.buf[:0], s)
	h := Hash(p.buf)
	id, ok := p.sp.search(p.buf, h, &p.block, &p.key)
	return id, h, ok
}

// Bytes returns the canonical encoding from the most recent Lookup,
// valid until the next Lookup on this probe.
func (p *spillProbe) Bytes() []byte { return p.buf }

// runCursor decodes one run front to back, for merge-joins and for
// compaction. It reads the file in buffer-sized pieces with ReadAt and
// decodes entries from the buffer; key is the current entry's, head its
// first eight bytes as Batch.Order compares them, id its ID. The buffer
// and the key belong to the Spill's idle list between uses.
type runCursor struct {
	r      *runMeta
	buf    []byte // buf[lo:hi] is read and not yet decoded
	lo, hi int
	off    int64 // file offset the next read starts at
	key    []byte
	head   uint64
	id     uint64
	left   int   // entries not yet decoded
	done   bool  // moved past the last entry
	n      int64 // entries decoded, for Stats
}

// openCursors puts a cursor on the first entry of each of runs. The
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
		*c = runCursor{r: r, buf: c.buf[:cap(c.buf)], key: c.key[:0], left: r.count}
		curs = append(curs, c)
		if err := c.fill(); err != nil {
			return curs, err
		}
		if c.hi < len(spillMagic) || string(c.buf[:len(spillMagic)]) != spillMagic {
			return curs, r.corrupt("bad magic")
		}
		c.lo = len(spillMagic)
		if err := c.next(); err != nil {
			return curs, err
		}
	}
	return curs, nil
}

// closeCursors returns cursors to the idle list.
func (sp *Spill) closeCursors(curs []*runCursor) {
	for _, c := range curs {
		sp.entriesDecoded.Add(c.n)
		c.r = nil
	}
	sp.cursors = append(sp.cursors, curs...)
}

// fill moves the undecoded bytes to the front of the buffer and reads
// on until the buffer is full or the run's recorded size is reached. A
// file that ends before its recorded size is corrupt.
func (c *runCursor) fill() error {
	c.hi = copy(c.buf, c.buf[c.lo:c.hi])
	c.lo = 0
	want := min(int64(len(c.buf)-c.hi), c.r.size-c.off)
	if want <= 0 {
		return nil
	}
	m, err := c.r.f.ReadAt(c.buf[c.hi:c.hi+int(want)], c.off)
	if int64(m) < want {
		return c.r.shortRead(c.off, m, want, err)
	}
	c.hi += m
	c.off += int64(m)
	return nil
}

// next advances to the following entry, setting done past the last.
func (c *runCursor) next() error {
	if c.left == 0 {
		c.done = true
		return nil
	}
	if c.hi-c.lo < 2*binary.MaxVarintLen64 {
		if err := c.fill(); err != nil {
			return err
		}
	}
	win := c.buf[c.lo:c.hi]
	shared, n := binary.Uvarint(win)
	if n <= 0 {
		return c.r.corrupt("bad shared-prefix varint")
	}
	pos := n
	sufLen, n := binary.Uvarint(win[pos:])
	if n <= 0 {
		return c.r.corrupt("bad suffix-length varint")
	}
	pos += n
	if shared > uint64(len(c.key)) {
		return c.r.corrupt("shared prefix exceeds previous key")
	}
	if uint64(len(win)-pos) < sufLen || len(win)-pos-int(sufLen) < binary.MaxVarintLen64 {
		// The suffix and the ID after it are not all in the window. What
		// the file still holds bounds the suffix before anything is sized
		// by it: a hostile length allocates nothing.
		c.lo += pos
		rest := int64(c.hi-c.lo) + c.r.size - c.off
		if sufLen > uint64(rest) {
			return c.r.corrupt("truncated key suffix")
		}
		if need := int(min(int64(sufLen)+binary.MaxVarintLen64, rest)); len(c.buf) < need {
			// One entry larger than the buffer.
			c.buf = append(make([]byte, 0, need), c.buf[c.lo:c.hi]...)[:need]
			c.lo, c.hi = 0, c.hi-c.lo
		}
		if err := c.fill(); err != nil {
			return err
		}
		win, pos = c.buf[c.lo:c.hi], 0
	}
	suffix := win[pos : pos+int(sufLen)]
	pos += int(sufLen)
	// A run's keys strictly increase. Past the shared prefix the first
	// byte nearly always says so; a restart point shares nothing and may
	// need the whole comparison.
	if old := c.key[shared:]; c.left < c.r.count && !(len(suffix) > 0 && (len(old) == 0 || suffix[0] > old[0])) &&
		bytes.Compare(suffix, old) <= 0 {
		return c.r.corrupt("keys not strictly increasing")
	}
	c.key = append(c.key[:shared], suffix...)
	delta, n := binary.Uvarint(win[pos:])
	if n <= 0 {
		return c.r.corrupt("bad id varint")
	}
	c.lo += pos + n
	if delta >= uint64(c.r.count) {
		return c.r.corrupt("id delta out of range")
	}
	c.id = c.r.base + delta
	if shared < 8 {
		c.head = head8(c.key)
	}
	c.left--
	c.n++
	return nil
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

// probeIsCheaper decides MergeIntern's arm for n candidates from counts
// the set already has: scanning decodes every entry of every run,
// probing tests every run's filter for every candidate and reads about
// a block for each.
func (sp *Spill) probeIsCheaper(n int) bool {
	if sp.forceArm != armByCost {
		return sp.forceArm == armProbe
	}
	scan := int64(sp.flushedBase) * scanEntryNS
	probe := int64(n) * (int64(len(sp.runs))*probeRunNS + probeReadNS)
	return probe < scan
}

// checkRunSizes asks every run file for its length. The probing arm
// reads no byte of most runs, so without this a truncated run would
// fail a merge in one arm and pass it in the other.
func (sp *Spill) checkRunSizes() error {
	for _, r := range sp.runs {
		fi, err := r.f.Stat()
		if err != nil {
			return fmt.Errorf("store: spill run %s: %w", r.path, err)
		}
		if fi.Size() < r.size {
			return r.shortRead(fi.Size(), 0, r.size-fi.Size(), nil)
		}
	}
	return nil
}

// MergeIntern takes a set of distinct canonical encodings, filters out
// the members, interns the fresh remainder in the batch's Order as one
// new sorted run, and hands each fresh encoding and its assigned ID to
// emit before moving on. This is the batch interning path for
// external-memory BFS: at a level barrier every candidate is resolved
// against all prior levels at once — by one sequential pass over every
// run, each candidate advancing each run's cursor past the keys below
// it, or, when that would decode far more entries than there are
// candidates to justify it (probeIsCheaper), by one point lookup per
// candidate and no cursor at all. Both arms admit the same encodings
// under the same IDs into the same run. Any hot-batch contents are
// flushed first so the run set is complete. The enc slice passed to
// emit is only valid during the call.
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
	order := cands.Order()
	sp.merges++
	sp.mergeCands += int64(len(order))
	// member reports whether candidate i is in some run.
	var member func(i int) (bool, error)
	var curs []*runCursor
	if sp.probeIsCheaper(len(order)) {
		sp.mergesProbed++
		if err := sp.checkRunSizes(); err != nil {
			return 0, err
		}
		member = func(i int) (bool, error) {
			_, ok, err := sp.searchRuns(cands.Key(i), &sp.lkBlock, &sp.lkKey)
			return ok, err
		}
	} else {
		curs, err = sp.openCursors(sp.runs)
		if err != nil {
			sp.closeCursors(curs)
			return 0, err
		}
		member = func(i int) (bool, error) {
			key, head := cands.Key(i), cands.heads[i]
			for _, c := range curs {
				for !c.done {
					cmp := c.compare(head, key)
					if cmp == 0 {
						return true, nil
					}
					if cmp > 0 {
						break
					}
					if err := c.next(); err != nil {
						return false, err
					}
				}
			}
			return false, nil
		}
	}
	var rw *runWriter
	for _, i := range order {
		var seen bool
		if seen, err = member(i); err != nil {
			break
		}
		if seen {
			continue
		}
		if rw == nil {
			if rw, err = sp.newRunWriter(sp.runPath(sp.total), sp.total, -1); err != nil {
				break
			}
		}
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
	sp.closeCursors(curs)
	if rw != nil {
		r, ferr := rw.finish()
		sp.flushedBase = sp.total
		if ferr == nil {
			ferr = sp.register(r)
		}
		if err == nil {
			err = ferr
		}
	}
	return fresh, err
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
		if err := r.f.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if sp.ownDir {
		if err := os.RemoveAll(sp.dir); err != nil {
			errs = append(errs, err)
		}
	} else {
		for _, r := range sp.runs {
			if err := os.Remove(r.path); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

var _ SeenSet = (*Spill)(nil)
