package store

// The Frontier half of the storage abstraction: a FIFO of
// state encodings for level-synchronized BFS. Engines ping-pong two
// frontiers — drain the current level while pushing the next — and
// report Len through obs.Progress, so the ledger's geometric-tail ETA
// reads the true frontier size whichever backend holds it.
//
// MemFrontier packs encodings into one arena; DiskFrontier streams
// them through a bufio-buffered temp file of uvarint-length-prefixed
// records, so a frontier of hundreds of millions of encodings costs
// file bytes, not heap.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// A Frontier is a FIFO of state encodings: Push appends, Drain
// iterates in push order, Reset empties for reuse. Single-goroutine.
type Frontier interface {
	// Push appends one encoding (copied before return).
	Push(enc []byte) error
	// Len returns the number of queued encodings.
	Len() int
	// Bytes returns the queued payload size.
	Bytes() int64
	// Drain iterates the queued encodings in push order. The enc slice
	// passed to fn is only valid during the call. Drain does not
	// consume the queue; call Reset to empty it.
	Drain(fn func(enc []byte) error) error
	// Reset empties the frontier for reuse.
	Reset() error
	// Close releases any resources (temp files).
	Close() error
}

// MemFrontier is the in-RAM Frontier: one arena of concatenated
// encodings plus entry boundaries.
type MemFrontier struct {
	arena []byte
	offs  []int
}

// NewMemFrontier returns an empty in-RAM frontier.
func NewMemFrontier() *MemFrontier { return &MemFrontier{} }

// Push implements Frontier.
func (f *MemFrontier) Push(enc []byte) error {
	f.arena = append(f.arena, enc...)
	f.offs = append(f.offs, len(f.arena))
	return nil
}

// Len implements Frontier.
func (f *MemFrontier) Len() int { return len(f.offs) }

// Bytes implements Frontier.
func (f *MemFrontier) Bytes() int64 { return int64(len(f.arena)) }

// Drain implements Frontier.
func (f *MemFrontier) Drain(fn func(enc []byte) error) error {
	lo := 0
	for _, hi := range f.offs {
		if err := fn(f.arena[lo:hi]); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// Reset implements Frontier.
func (f *MemFrontier) Reset() error {
	f.arena = f.arena[:0]
	f.offs = f.offs[:0]
	return nil
}

// Close implements Frontier.
func (f *MemFrontier) Close() error { return nil }

// DiskFrontier is the spilling Frontier: uvarint-length-prefixed
// records streamed through one temp file.
type DiskFrontier struct {
	f     *os.File
	path  string
	w     *bufio.Writer
	n     int
	bytes int64 // payload bytes (excluding length prefixes)
	size  int64 // file bytes
	tmp   [binary.MaxVarintLen64]byte
}

// NewDiskFrontier creates an empty disk-backed frontier under dir
// (the default temp directory when dir is empty). Close removes the
// file.
func NewDiskFrontier(dir string) (*DiskFrontier, error) {
	f, err := os.CreateTemp(dir, "ioafrontier-*.q")
	if err != nil {
		return nil, fmt.Errorf("store: frontier: %w", err)
	}
	return &DiskFrontier{f: f, path: f.Name(), w: bufio.NewWriterSize(f, spillBufferSize)}, nil
}

// Push implements Frontier.
func (f *DiskFrontier) Push(enc []byte) error {
	n := binary.PutUvarint(f.tmp[:], uint64(len(enc)))
	if _, err := f.w.Write(f.tmp[:n]); err != nil {
		return fmt.Errorf("store: frontier %s: %w", f.path, err)
	}
	if _, err := f.w.Write(enc); err != nil {
		return fmt.Errorf("store: frontier %s: %w", f.path, err)
	}
	f.n++
	f.bytes += int64(len(enc))
	f.size += int64(n) + int64(len(enc))
	return nil
}

// Len implements Frontier.
func (f *DiskFrontier) Len() int { return f.n }

// Bytes implements Frontier.
func (f *DiskFrontier) Bytes() int64 { return f.bytes }

// Drain implements Frontier.
func (f *DiskFrontier) Drain(fn func(enc []byte) error) error {
	if err := f.w.Flush(); err != nil {
		return fmt.Errorf("store: frontier %s: %w", f.path, err)
	}
	r := bufio.NewReaderSize(io.NewSectionReader(f.f, 0, f.size), spillBufferSize)
	var buf []byte
	for i := 0; i < f.n; i++ {
		ln, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("store: frontier %s: record %d: %w", f.path, i, err)
		}
		if uint64(cap(buf)) < ln {
			buf = make([]byte, ln)
		}
		buf = buf[:ln]
		if _, err := io.ReadFull(r, buf); err != nil {
			return fmt.Errorf("store: frontier %s: record %d: %w", f.path, i, err)
		}
		if err := fn(buf); err != nil {
			return err
		}
	}
	return nil
}

// Reset implements Frontier, truncating the file for reuse.
func (f *DiskFrontier) Reset() error {
	if err := f.w.Flush(); err != nil {
		return fmt.Errorf("store: frontier %s: %w", f.path, err)
	}
	if err := f.f.Truncate(0); err != nil {
		return fmt.Errorf("store: frontier %s: %w", f.path, err)
	}
	if _, err := f.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: frontier %s: %w", f.path, err)
	}
	f.w.Reset(f.f)
	f.n, f.bytes, f.size = 0, 0, 0
	return nil
}

// Close implements Frontier, removing the temp file.
func (f *DiskFrontier) Close() error {
	err := f.f.Close()
	if rerr := os.Remove(f.path); err == nil {
		err = rerr
	}
	return err
}

var (
	_ Frontier = (*MemFrontier)(nil)
	_ Frontier = (*DiskFrontier)(nil)
)
