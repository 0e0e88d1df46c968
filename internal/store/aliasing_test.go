package store_test

// Regression battery for the no-aliasing contract: bytes handed to
// InternEncoded must be copied into the arena before the call returns,
// so a caller mutating or reusing its encoding buffer afterwards cannot
// corrupt stored encodings. Exercised under a canonicalizer.

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
