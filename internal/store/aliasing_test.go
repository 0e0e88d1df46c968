package store_test

// Regression battery for the no-aliasing contract: bytes handed to
// InternEncoded must be copied into the arena before the call returns,
// so a caller mutating or reusing its encoding buffer afterwards cannot
// corrupt stored encodings. Canonical encodings are their callers'
// business; internal/explore's canon_test.go holds the orbit arms.

import (
	"bytes"
	"testing"

	"repro/internal/ioa"
	"repro/internal/store"
)

func pair(a, b string) ioa.State {
	return ioa.NewTupleState([]ioa.State{ioa.KeyState(a), ioa.KeyState(b)})
}

// TestInternEncodedCopiesBuffer mutates the caller's encoding slice
// immediately after InternEncoded and asserts the stored bytes are
// unchanged and still dedup correctly.
func TestInternEncodedCopiesBuffer(t *testing.T) {
	st := store.New(store.Options{})
	s := pair("b", "a")

	enc := ioa.AppendState(nil, s)
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

	// The same state still dedups against the intact stored bytes.
	if id2, fresh := store.InternState(st, pair("b", "a")); fresh || id2 != id {
		t.Fatalf("re-intern interned as (%d, fresh=%v), want (%d, false)", id2, fresh, id)
	}
	if st.Len() != 1 {
		t.Fatalf("store holds %d states, want 1", st.Len())
	}
}

// TestInternScratchIndependence pins that a caller's scratch buffer,
// reused for every encoding as the explorers reuse theirs, never leaks
// into arenas: interleaved interns of many states, each verified
// against an encoding snapshot at the end.
func TestInternScratchIndependence(t *testing.T) {
	st := store.New(store.Options{})
	keys := []string{"a", "bb", "ccc", "dddd", "e", "ff"}
	type snap struct {
		id  store.ID
		enc []byte
	}
	var snaps []snap
	var scratch []byte
	for i, a := range keys {
		for _, b := range keys[i:] {
			scratch = ioa.AppendState(scratch[:0], pair(b, a))
			id, fresh := st.InternEncoded(scratch, store.Hash(scratch))
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
