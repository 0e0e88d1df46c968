package store_test

// Regression battery for the no-aliasing contract: bytes handed to
// InternEncoded or AppendFresh must be copied into the arena before the
// call returns, so a caller mutating or reusing its encoding buffer
// afterwards cannot corrupt stored encodings. Exercised under a
// canonicalizer, as the parallel engine's barrier is.

import (
	"bytes"
	"testing"

	"repro/internal/ioa"
	"repro/internal/store"
)

// sortPair canonicalizes a two-part tuple state by ordering the parts'
// keys — a minimal nontrivial symmetry for the aliasing tests.
type sortPair struct{}

func (sortPair) Name() string { return "sort-pair" }

func (sortPair) Canonical(s ioa.State) ioa.State {
	ts, ok := s.(*ioa.TupleState)
	if !ok || ts.Len() != 2 {
		return s
	}
	a, b := ts.At(0), ts.At(1)
	if a.Key() <= b.Key() {
		return s
	}
	return ioa.NewTupleState([]ioa.State{b, a})
}

func pair(a, b string) ioa.State {
	return ioa.NewTupleState([]ioa.State{ioa.KeyState(a), ioa.KeyState(b)})
}

// TestInternEncodedCopiesBuffer mutates the caller's encoding slice
// immediately after InternEncoded and asserts the stored bytes are
// unchanged and still dedup correctly.
func TestInternEncodedCopiesBuffer(t *testing.T) {
	st := store.New(store.Options{Canon: sortPair{}})
	s := pair("b", "a")

	enc := st.AppendCanonical(nil, s)
	want := append([]byte(nil), enc...)
	id, fresh := st.InternEncoded(enc, store.Hash(enc))
	if !fresh {
		t.Fatal("first intern not fresh")
	}

	// Clobber the caller's buffer: the arena must hold its own copy.
	for i := range enc {
		enc[i] = ^enc[i]
	}
	if got := st.Encoding(id); !bytes.Equal(got, want) {
		t.Fatalf("stored encoding changed after caller mutation:\ngot  %q\nwant %q", got, want)
	}

	// The orbit-mate still dedups against the intact stored bytes.
	if id2, fresh := st.Intern(pair("a", "b")); fresh || id2 != id {
		t.Fatalf("orbit-mate interned as (%d, fresh=%v), want (%d, false)", id2, fresh, id)
	}
	if st.Len() != 1 {
		t.Fatalf("store holds %d states, want 1", st.Len())
	}
}

// TestAppendFreshCopiesBuffer admits encodings through the path the
// parallel engine's barrier uses — AppendFresh reading a buffer the
// caller goes on to reuse. The stored encodings must survive the
// buffer being overwritten, and orbit-mates must still find them.
func TestAppendFreshCopiesBuffer(t *testing.T) {
	st := store.New(store.Options{Canon: sortPair{}})
	states := []ioa.State{pair("z", "a"), pair("m", "q"), pair("x", "c")}
	var buf []byte
	want := make([][]byte, len(states))
	st.AppendFresh(len(states), 1, func(i int) ([]byte, uint64) {
		buf = st.AppendCanonical(buf[:0], states[i])
		want[i] = append([]byte(nil), buf...)
		return buf, store.Hash(buf)
	})
	for i := range buf {
		buf[i] = '#'
	}
	p := st.Probe()
	for i, s := range states {
		if got := st.Encoding(store.ID(i)); !bytes.Equal(got, want[i]) {
			t.Fatalf("encoding %d changed after buffer reuse:\ngot  %q\nwant %q", i, got, want[i])
		}
		// The orbit-mate, the pair's parts swapped, finds the stored copy.
		ts := s.(*ioa.TupleState)
		enc := st.AppendCanonical(nil, pair(ts.At(1).Key(), ts.At(0).Key()))
		if id, ok := p.Lookup(enc, store.Hash(enc)); !ok || id != store.ID(i) {
			t.Fatalf("orbit lookup of %d: (%d, %v), want (%d, true)", i, id, ok, i)
		}
	}
}

// TestInternScratchIndependence pins that Intern's internal scratch
// reuse never leaks into arenas: interleaved interns of many states,
// each verified against an encoding snapshot at the end.
func TestInternScratchIndependence(t *testing.T) {
	st := store.New(store.Options{Canon: sortPair{}})
	keys := []string{"a", "bb", "ccc", "dddd", "e", "ff"}
	type snap struct {
		id  store.ID
		enc []byte
	}
	var snaps []snap
	for i, a := range keys {
		for _, b := range keys[i:] {
			id, fresh := st.Intern(pair(b, a))
			if fresh {
				snaps = append(snaps, snap{id, append([]byte(nil), st.Encoding(id)...)})
			}
		}
	}
	for _, sn := range snaps {
		if got := st.Encoding(sn.id); !bytes.Equal(got, sn.enc) {
			t.Fatalf("encoding of %d changed after later interns", sn.id)
		}
	}
}
