package store

import (
	"fmt"
	"testing"

	"repro/internal/ioa"
)

func TestInternDenseIDsAndDedup(t *testing.T) {
	st := New(Options{})
	keys := []string{"a", "b", "c", "a", "b", "d", "a"}
	wantIDs := []ID{0, 1, 2, 0, 1, 3, 0}
	wantNew := []bool{true, true, true, false, false, true, false}
	for i, k := range keys {
		id, fresh := InternState(st, ioa.KeyState(k))
		if id != wantIDs[i] || fresh != wantNew[i] {
			t.Fatalf("InternState(%q) = (%d, %v), want (%d, %v)", k, id, fresh, wantIDs[i], wantNew[i])
		}
	}
	if st.Len() != 4 {
		t.Fatalf("Len = %d, want 4", st.Len())
	}
	if got := st.ArenaBytes(); got != 4 {
		t.Fatalf("ArenaBytes = %d, want 4", got)
	}
}

func TestEncodingRoundTrip(t *testing.T) {
	st := New(Options{})
	var ids []ID
	var keys []string
	for i := 0; i < 257; i++ {
		k := fmt.Sprintf("state-%03d", i)
		id, fresh := InternState(st, ioa.KeyState(k))
		if !fresh {
			t.Fatalf("state %q unexpectedly deduped", k)
		}
		ids = append(ids, id)
		keys = append(keys, k)
	}
	for i, id := range ids {
		if got := string(st.Encoding(id)); got != keys[i] {
			t.Fatalf("Encoding(%d) = %q, want %q", id, got, keys[i])
		}
	}
}

// TestLookupStateMatchesLookup: Lookup, the one membership read,
// reports members under their IDs and nothing else, whether it is given
// a state (LookupState) or that state's encoded bytes.
func TestLookupStateMatchesLookup(t *testing.T) {
	st := New(Options{})
	for i := 0; i < 100; i++ {
		InternState(st, ioa.KeyState(fmt.Sprintf("s%d", i)))
	}
	for i := 0; i < 120; i++ {
		s := ioa.KeyState(fmt.Sprintf("s%d", i))
		hid, hok := LookupState(st, s)
		enc := ioa.AppendState(nil, s)
		pid, pok := st.Lookup(enc, Hash(enc))
		if hok != pok || hid != pid {
			t.Fatalf("LookupState(%q) = (%d,%v) but Lookup = (%d,%v)", s, hid, hok, pid, pok)
		}
		if want := i < 100; hok != want {
			t.Fatalf("membership of %q = %v, want %v", s, hok, want)
		}
		if hok && hid != ID(i) {
			t.Fatalf("id of %q = %d, want %d", s, hid, i)
		}
	}
}

// TestLookupAndInternShareHash: the bytes and hash a caller computes
// once serve the lookup and the intern alike.
func TestLookupAndInternShareHash(t *testing.T) {
	st := New(Options{})
	enc := ioa.AppendState(nil, ioa.KeyState("reuse-me"))
	h := Hash(enc)
	if _, ok := st.Lookup(enc, h); ok {
		t.Fatal("unexpected membership before intern")
	}
	id, fresh := st.InternEncoded(enc, h)
	if !fresh || id != 0 {
		t.Fatalf("InternEncoded = (%d,%v), want (0,true)", id, fresh)
	}
	if got, ok := st.Lookup([]byte("reuse-me"), h); !ok || got != id {
		t.Fatalf("post-intern Lookup = (%d,%v), want (%d,true)", got, ok, id)
	}
}
