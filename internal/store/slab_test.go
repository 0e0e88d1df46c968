package store

// The arena's write path: slabs that are filled and never copied. What
// is pinned is what callers may now rely on — an Encoding view stays at
// its address for the store's life — and the edges of the placement:
// encodings that end on, before and past a slab boundary, and one no
// slab is big enough for.

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/ioa"
)

// patterned returns n bytes that differ from every other call's.
func patterned(n, salt int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + salt)
	}
	if n >= 8 {
		copy(b, fmt.Sprintf("%08d", salt))
	}
	return b
}

func TestSlabBoundaries(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sizes []int
		slabs int
	}{
		{"fills the first slab exactly", []int{slabMin - 100, 100, 8}, 2},
		{"one short of the boundary", []int{slabMin - 100, 99, 1, 8}, 2},
		{"one past the boundary", []int{slabMin - 100, 101, 8}, 2},
		{"a whole slab in one encoding", []int{slabMin, 8}, 2},
		{"larger than the next slab", []int{8, 3 * slabMin, 8}, 3},
		{"larger than any slab", []int{8, slabMax + 1, 8}, 3},
		{"the empty encoding", []int{0, 8}, 1},
	} {
		st := New(Options{})
		var encs [][]byte
		for i, n := range tc.sizes {
			enc := patterned(n, i+1)
			id, fresh := st.InternEncoded(enc, Hash(enc))
			if !fresh || id != ID(i) {
				t.Fatalf("%s: encoding %d interned as (%d, %v)", tc.name, i, id, fresh)
			}
			encs = append(encs, enc)
		}
		var total int64
		for i, enc := range encs {
			total += int64(len(enc))
			if got := st.Encoding(ID(i)); !bytes.Equal(got, enc) {
				t.Fatalf("%s: Encoding(%d) = %d bytes %.16x…, want %d bytes %.16x…", tc.name, i, len(got), got, len(enc), enc)
			}
			if id, fresh := st.InternEncoded(enc, Hash(enc)); fresh || id != ID(i) {
				t.Fatalf("%s: re-interning encoding %d = (%d, %v)", tc.name, i, id, fresh)
			}
		}
		if len(st.slabs) != tc.slabs {
			t.Errorf("%s: %d slabs, want %d", tc.name, len(st.slabs), tc.slabs)
		}
		if st.ArenaBytes() != total || st.ArenaCapBytes() < st.ArenaBytes() {
			t.Errorf("%s: ArenaBytes %d (want %d), ArenaCapBytes %d", tc.name, st.ArenaBytes(), total, st.ArenaCapBytes())
		}
		if st.Err() != nil {
			t.Errorf("%s: Err = %v", tc.name, st.Err())
		}
	}
}

// TestEncodingsNeverMove: 10⁵ interns of benchmark-sized encodings, and
// every view taken along the way still starts at the address it was
// taken at and still reads the bytes it read — nothing was re-copied.
func TestEncodingsNeverMove(t *testing.T) {
	const n = 100_000
	st := New(Options{})
	addrs := make([]*byte, n)
	for i := 0; i < n; i++ {
		enc := patterned(283, i)
		id, fresh := st.InternEncoded(enc, Hash(enc))
		if !fresh || id != ID(i) {
			t.Fatalf("intern %d = (%d, %v)", i, id, fresh)
		}
		addrs[i] = unsafe.SliceData(st.Encoding(id))
	}
	for i := 0; i < n; i++ {
		got := st.Encoding(ID(i))
		if unsafe.SliceData(got) != addrs[i] {
			t.Fatalf("Encoding(%d) moved", i)
		}
		if !bytes.Equal(got, patterned(283, i)) {
			t.Fatalf("Encoding(%d) changed", i)
		}
	}
	// Growth stops at slabMax: the overshoot is at most the open slab
	// plus one encoding's tail in each closed one.
	if waste := st.ArenaCapBytes() - st.ArenaBytes(); waste > slabMax+int64(len(st.slabs))*283 {
		t.Errorf("%d bytes reserved over %d held in %d slabs", st.ArenaCapBytes(), st.ArenaBytes(), len(st.slabs))
	}
}

// TestSmallStoreStaysSmall: slabs start small, so a ten-state store —
// the proof kernel and the tests build thousands — costs kilobytes.
func TestSmallStoreStaysSmall(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := New(Options{})
	for i := 0; i < 10; i++ {
		st.Intern(ioa.KeyState(patterned(283, i)))
	}
	runtime.ReadMemStats(&after)
	if st.Len() != 10 {
		t.Fatalf("store holds %d states, want 10", st.Len())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("a ten-state store allocated %d bytes, want under 64 KiB", got)
	}
	if st.ArenaCapBytes() >= 64<<10 {
		t.Errorf("a ten-state store reserves %d arena bytes", st.ArenaCapBytes())
	}
}
