package store

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/ioa"
)

func TestInternDenseIDsAndDedup(t *testing.T) {
	st := New(Options{})
	keys := []string{"a", "b", "c", "a", "b", "d", "a"}
	wantIDs := []ID{0, 1, 2, 0, 1, 3, 0}
	wantNew := []bool{true, true, true, false, false, true, false}
	for i, k := range keys {
		id, fresh := st.Intern(ioa.KeyState(k))
		if id != wantIDs[i] || fresh != wantNew[i] {
			t.Fatalf("Intern(%q) = (%d, %v), want (%d, %v)", k, id, fresh, wantIDs[i], wantNew[i])
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
		id, fresh := st.Intern(ioa.KeyState(k))
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

func TestHasAndProbeAgree(t *testing.T) {
	st := New(Options{})
	for i := 0; i < 100; i++ {
		st.Intern(ioa.KeyState(fmt.Sprintf("s%d", i)))
	}
	p := st.Probe()
	for i := 0; i < 120; i++ {
		s := ioa.KeyState(fmt.Sprintf("s%d", i))
		hid, hok := st.Has(s)
		enc := st.AppendCanonical(nil, s)
		pid, pok := p.Lookup(enc, Hash(enc))
		if hok != pok || hid != pid {
			t.Fatalf("Has(%q) = (%d,%v) but Probe = (%d,%v)", s, hid, hok, pid, pok)
		}
		if want := i < 100; hok != want {
			t.Fatalf("membership of %q = %v, want %v", s, hok, want)
		}
	}
}

// TestProbeHashReuse: the bytes and hash a worker computes once serve
// the probe and the intern alike.
func TestProbeHashReuse(t *testing.T) {
	st := New(Options{})
	p := st.Probe()
	enc := st.AppendCanonical(nil, ioa.KeyState("reuse-me"))
	h := Hash(enc)
	if _, ok := p.Lookup(enc, h); ok {
		t.Fatal("unexpected membership before intern")
	}
	id, fresh := st.InternEncoded(enc, h)
	if !fresh || id != 0 {
		t.Fatalf("InternEncoded = (%d,%v), want (0,true)", id, fresh)
	}
	if got, ok := p.Lookup([]byte("reuse-me"), h); !ok || got != id {
		t.Fatalf("post-intern Lookup = (%d,%v), want (%d,true)", got, ok, id)
	}
}

// TestConcurrentProbesFrozen exercises the frozen-store read phase the
// parallel explorer relies on: many probes racing over a store that is
// not being written. Run under -race in CI.
func TestConcurrentProbesFrozen(t *testing.T) {
	st := New(Options{})
	const n = 500
	for i := 0; i < n; i++ {
		st.Intern(ioa.KeyState(fmt.Sprintf("frozen-%d", i)))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := st.Probe()
			for i := 0; i < n+50; i++ {
				s := ioa.KeyState(fmt.Sprintf("frozen-%d", i))
				enc := st.AppendCanonical(nil, s)
				id, ok := p.Lookup(enc, Hash(enc))
				if want := i < n; ok != want {
					t.Errorf("worker %d: membership of %q = %v, want %v", w, s, ok, want)
					return
				}
				if ok && id != ID(i) {
					t.Errorf("worker %d: id of %q = %d, want %d", w, s, id, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
