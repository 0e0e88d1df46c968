package ioa_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/ioa"
)

// FuzzCellEncoding holds ioa.Encoder to the Key on FuzzNestedComposition's
// random wrapper trees. Over the states the tree's own Next reaches, and
// every successor it steps to on the way, two states encode alike iff
// their keys are equal; a raw rebuild (NewTupleState parts, no cells)
// encodes as the state it rebuilds; and over a composition, a state one
// of whose tuples is not its composition's takes tag 0 and the Key's
// bytes. `go test -fuzz=FuzzCellEncoding ./internal/ioa`.
func FuzzCellEncoding(f *testing.F) {
	f.Add(int64(1), []byte{1, 2, 0, 3, 1, 0, 5, 7, 9})
	f.Add(int64(7), []byte{5, 6, 1, 0, 0x9f, 3, 2, 0, 0, 1, 17, 0, 0x83})
	f.Add(int64(-2), []byte{9, 3, 1, 0, 0x81, 2, 42, 1, 0, 7, 0, 3, 0xff})
	f.Add(int64(3), []byte{2, 0xff, 1, 3, 0x55, 0, 0x8e, 1, 0, 0x8d, 2})
	f.Add(int64(5), []byte{1, 2, 1, 0, 0x80, 0, 0, 0x80, 0, 1, 0, 0, 0})
	// Compose(L0, L1), L1 stepping on its own: states that differ in the
	// last leaf alone, which an encoder that stops a leaf early merges.
	f.Add(int64(0), []byte{1, 0, 0, 0, 0, 0, 2})
	f.Fuzz(func(t *testing.T, seed int64, shape []byte) {
		a := (&treeGen{rng: rand.New(rand.NewSource(seed)), shape: shape}).tree(0)
		encode := ioa.Encoder(a)
		encOf := make(map[string]string) // key → encoding
		keyOf := make(map[string]string) // encoding → key
		check := func(s ioa.State) (fresh bool) {
			k, enc := s.Key(), string(encode(nil, s))
			if e, ok := encOf[k]; ok {
				if e != enc {
					t.Fatalf("%s: two states keyed %q encode as %x and %x", a.Name(), k, e, enc)
				}
				return false
			}
			if other, ok := keyOf[enc]; ok {
				t.Fatalf("%s: states %q and %q both encode as %x", a.Name(), other, k, enc)
			}
			encOf[k], keyOf[enc] = enc, k
			return true
		}
		var order []ioa.State
		for _, s := range a.Start() {
			if check(s) {
				order = append(order, s)
			}
		}
		for i := 0; i < len(order); i++ {
			for _, act := range a.Sig().Acts().Sorted() {
				for _, nxt := range ioa.Successors(a, order[i], act) {
					if check(nxt) && len(order) < 200 {
						order = append(order, nxt)
					}
				}
			}
		}
		for _, s := range order {
			check(rawRebuild(s))
		}
		under := a
		for ioa.Wrapped(under) != nil {
			under = ioa.Wrapped(under)
		}
		if _, ok := under.(*ioa.Composite); !ok {
			return
		}
		for _, s := range order[:min(len(order), 8)] {
			for _, m := range malformed(s) {
				if enc := encode(nil, m); enc[0] != 0 || !bytes.Equal(enc[1:], ioa.AppendState(nil, m)) {
					t.Fatalf("%s: malformed state %q encodes as %x, not tag 0 and its key", a.Name(), m.Key(), enc)
				}
			}
		}
	})
}
