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
// Everything is plain os.File + bufio from the stdlib. Runs created
// under a caller-provided Dir are removed on Close; with Dir empty the
// Spill owns a temp directory and removes it wholesale.
//
// Concurrency matches Store: single-writer, with Probe views valid for
// concurrent reads only while the set is frozen. Disk and decode
// failures cannot surface through the Intern/Lookup signatures, so
// they latch on Err; engines poll Err at strides and level barriers.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/ioa"
)

// ErrCorruptRun reports a spill run file whose bytes do not decode
// cleanly — a truncated tail, an impossible shared-prefix length, an
// entry overrunning its block. The error latched on Err wraps it with
// the run path and block offset.
var ErrCorruptRun = errors.New("store: corrupt spill run")

const (
	spillMagic     = "IOSPILL1"
	spillHeaderLen = int64(len(spillMagic))

	// DefaultSpillBudget is the hot-batch byte budget before a flush
	// when SpillOptions.MemBudget is zero.
	DefaultSpillBudget = 64 << 20

	defaultBlockEvery   = 16
	defaultBloomPerKey  = 10
	hotEntryOverhead    = 24 // boundary + hash + index slot, approximate
	spillReadBufferSize = 1 << 16
)

// SpillOptions parameterizes a disk-spilling seen set.
type SpillOptions struct {
	// Dir is the directory for run files. Empty means a fresh temp
	// directory owned (and removed on Close) by the Spill; a non-empty
	// Dir is created if needed and only the run files are removed.
	Dir string
	// MemBudget is the hot-batch byte budget that triggers a flush;
	// 0 means DefaultSpillBudget. Tests use tiny budgets to force many
	// runs on small systems.
	MemBudget int64
	// BlockEvery is the restart interval in entries (sparse-index
	// granularity); 0 means 16.
	BlockEvery int
	// Canon, when non-nil, canonicalizes states before encoding, as in
	// store.Options.
	Canon Canonicalizer
	// AfterFlush, when non-nil, runs after each run file is written
	// and indexed, with the run's path. Tests use it to truncate a run
	// mid-record and assert the clean corruption error.
	AfterFlush func(path string)
}

// bloom is a fixed-size bloom filter fed the keys' Hash values, probed
// by double hashing. It lives and dies with the process that built it.
type bloom struct {
	bits []uint64
	m    uint64
	k    int
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
		pos := (h + uint64(i)*h2) % b.m
		b.bits[pos/64] |= 1 << (pos % 64)
	}
}

func (b *bloom) maybe(h uint64) bool {
	h2 := h>>17 | h<<47
	for i := 0; i < b.k; i++ {
		pos := (h + uint64(i)*h2) % b.m
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
// sparse index and bloom filter.
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
	runs        []*runMeta
	runSeq      int

	spilledBytes int64
	scratch      []byte
	lkBlock      []byte // writer-side search scratch
	lkKey        []byte

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

// Stats summarizes occupancy: the hot arena plus spill volume.
func (sp *Spill) Stats() Stats {
	return Stats{
		States:        int(sp.total),
		ArenaBytes:    sp.hot.Bytes(),
		ArenaCapBytes: int64(cap(sp.hot.arena)),
		Shards:        1,
		SpilledStates: int(sp.flushedBase),
		SpilledBytes:  sp.spilledBytes,
		SpillRuns:     len(sp.runs),
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
	if sp.hot.Bytes()+int64(sp.hot.Len())*hotEntryOverhead >= sp.budget {
		sp.setErr(sp.Flush())
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
	for i := len(sp.runs) - 1; i >= 0; i-- {
		id, ok, err := searchRun(sp.runs[i], enc, hash, blockBuf, keyBuf)
		if err != nil {
			sp.setErr(err)
			return None, false
		}
		if ok {
			return id, true
		}
	}
	return None, false
}

// searchRun probes one run: bloom, sparse index, one block read,
// forward decode.
func searchRun(r *runMeta, enc []byte, hash uint64, blockBuf, keyBuf *[]byte) (ID, bool, error) {
	if r.count == 0 || !r.filter.maybe(hash) {
		return None, false, nil
	}
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
	if m, err := r.f.ReadAt(buf, off); int64(m) < n {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return None, false, fmt.Errorf("%w: %s: block at %d: read %d of %d bytes: %v",
			ErrCorruptRun, r.path, off, m, n, err)
	}
	key := (*keyBuf)[:0]
	defer func() { *keyBuf = key }()
	corrupt := func(detail string) error {
		return fmt.Errorf("%w: %s: block at %d: %s", ErrCorruptRun, r.path, off, detail)
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
// and collecting hashes for the bloom filter as it goes.
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
	hashes []uint64
	tmp    [binary.MaxVarintLen64]byte
}

func (sp *Spill) newRunWriter(base uint64) (*runWriter, error) {
	path := filepath.Join(sp.dir, fmt.Sprintf("run%06d.spill", sp.runSeq))
	sp.runSeq++
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("store: spill run: %w", err)
	}
	rw := &runWriter{sp: sp, f: f, path: path, base: base,
		w: bufio.NewWriterSize(f, spillReadBufferSize)}
	rw.w.WriteString(spillMagic)
	rw.off = spillHeaderLen
	return rw, nil
}

func (rw *runWriter) putUvarint(v uint64) {
	n := binary.PutUvarint(rw.tmp[:], v)
	rw.w.Write(rw.tmp[:n])
	rw.off += int64(n)
}

func (rw *runWriter) add(key []byte, hash uint64, id uint64) {
	shared := 0
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
	rw.hashes = append(rw.hashes, hash)
	rw.count++
}

// finish flushes the file, builds the bloom filter, registers the run,
// and fires the AfterFlush hook.
func (rw *runWriter) finish() (*runMeta, error) {
	if err := rw.w.Flush(); err != nil {
		rw.f.Close()
		return nil, fmt.Errorf("store: spill run %s: %w", rw.path, err)
	}
	filter := newBloom(rw.count, defaultBloomPerKey)
	for _, h := range rw.hashes {
		filter.add(h)
	}
	rm := &runMeta{
		f:      rw.f,
		path:   rw.path,
		size:   rw.off,
		count:  rw.count,
		base:   rw.base,
		blocks: rw.blocks,
		keys:   rw.keys,
		filter: filter,
	}
	rw.sp.runs = append(rw.sp.runs, rm)
	rw.sp.spilledBytes += rm.size
	if rw.sp.opts.AfterFlush != nil {
		rw.sp.opts.AfterFlush(rm.path)
	}
	return rm, nil
}

// Flush writes the hot batch (sorted by key) as one new run and resets
// it. A no-op on an empty batch.
func (sp *Spill) Flush() error {
	if sp.hot.Len() == 0 {
		return nil
	}
	rw, err := sp.newRunWriter(sp.flushedBase)
	if err != nil {
		return err
	}
	for _, i := range sp.hot.Order() {
		rw.add(sp.hot.Key(i), sp.hot.Hash(i), sp.flushedBase+uint64(i))
	}
	if _, err := rw.finish(); err != nil {
		return err
	}
	sp.flushedBase = sp.total
	sp.hot.Reset()
	return nil
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

// runCursor decodes one run sequentially for merge-joins.
type runCursor struct {
	r    *bufio.Reader
	path string
	key  []byte
	id   uint64
	base uint64
	left int
	done bool
}

func (r *runMeta) cursor() *runCursor {
	sr := io.NewSectionReader(r.f, spillHeaderLen, r.size-spillHeaderLen)
	return &runCursor{
		r:    bufio.NewReaderSize(sr, spillReadBufferSize),
		path: r.path,
		base: r.base,
		left: r.count,
	}
}

// next advances to the following entry, reporting false at the end.
func (c *runCursor) next() (bool, error) {
	if c.left == 0 {
		c.done = true
		return false, nil
	}
	corrupt := func(detail string, err error) error {
		if err != nil {
			return fmt.Errorf("%w: %s: %s: %v", ErrCorruptRun, c.path, detail, err)
		}
		return fmt.Errorf("%w: %s: %s", ErrCorruptRun, c.path, detail)
	}
	shared, err := binary.ReadUvarint(c.r)
	if err != nil {
		return false, corrupt("bad shared-prefix varint", err)
	}
	sufLen, err := binary.ReadUvarint(c.r)
	if err != nil {
		return false, corrupt("bad suffix-length varint", err)
	}
	if shared > uint64(len(c.key)) {
		return false, corrupt("shared prefix exceeds previous key", nil)
	}
	c.key = c.key[:shared]
	for i := uint64(0); i < sufLen; i++ {
		b, err := c.r.ReadByte()
		if err != nil {
			return false, corrupt("truncated key suffix", err)
		}
		c.key = append(c.key, b)
	}
	delta, err := binary.ReadUvarint(c.r)
	if err != nil {
		return false, corrupt("bad id varint", err)
	}
	c.id = c.base + delta
	c.left--
	return true, nil
}

// MergeIntern consumes a sorted, strictly increasing stream of
// canonical encodings, filters out members (merge-joining the stream
// against every run sequentially), interns the fresh remainder in
// stream order as one new sorted run, and hands each fresh encoding
// and its assigned ID to emit before moving on. This is the batch
// interning path for external-memory BFS: at a level barrier every
// candidate is probed against all prior levels in one sequential pass
// instead of per-key block reads. Any hot-batch contents are flushed
// first so the run set is complete. The enc slice passed to emit is
// only valid during the call.
func (sp *Spill) MergeIntern(next func() ([]byte, bool), emit func(enc []byte, id ID) error) (int, error) {
	if err := sp.Err(); err != nil {
		return 0, err
	}
	if err := sp.Flush(); err != nil {
		sp.setErr(err)
		return 0, err
	}
	curs := make([]*runCursor, len(sp.runs))
	for i, r := range sp.runs {
		curs[i] = r.cursor()
		if _, err := curs[i].next(); err != nil {
			sp.setErr(err)
			return 0, err
		}
	}
	var (
		rw    *runWriter
		prev  []byte
		fresh int
		err   error
	)
	for {
		cand, ok := next()
		if !ok {
			break
		}
		if prev != nil && bytes.Compare(prev, cand) >= 0 {
			err = fmt.Errorf("store: MergeIntern stream not strictly increasing at %q", cand)
			break
		}
		prev = append(prev[:0], cand...)
		member := false
		for _, c := range curs {
			for !c.done && bytes.Compare(c.key, cand) < 0 {
				if _, err = c.next(); err != nil {
					break
				}
			}
			if err != nil {
				break
			}
			if !c.done && bytes.Equal(c.key, cand) {
				member = true
				break
			}
		}
		if err != nil {
			break
		}
		if member {
			continue
		}
		if rw == nil {
			if rw, err = sp.newRunWriter(sp.total); err != nil {
				break
			}
		}
		id := ID(sp.total)
		rw.add(cand, Hash(cand), sp.total)
		sp.total++
		fresh++
		if emit != nil {
			if err = emit(cand, id); err != nil {
				break
			}
		}
	}
	if rw != nil {
		if _, ferr := rw.finish(); ferr != nil && err == nil {
			err = ferr
		}
		sp.flushedBase = sp.total
	}
	if err != nil {
		sp.setErr(err)
		return fresh, err
	}
	return fresh, nil
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
