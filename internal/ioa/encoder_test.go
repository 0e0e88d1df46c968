package ioa_test

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ioa"
)

// FuzzCellEncoding holds ioa.Encoder to the Key on FuzzNestedComposition's
// random wrapper trees. Over the states the tree's own Next reaches, and
// every successor it steps to on the way, two states encode alike iff
// their keys are equal; a raw rebuild (NewTupleState parts, no cells)
// encodes as the state it rebuilds; and over a composition, a state one
// of whose tuples is not its composition's takes tag 0 and the Key's
// bytes. ioa.Decoder is Encoder's inverse: nil unless the tree is a
// composition under its wrappers, and otherwise a state decoded from an
// encoding, on the heap or in a Scratch, has the state's Key, encodes
// back to the same bytes and steps as the state does — the same Enabled
// list and the same successor keys, action by action, in order — while a
// tag-0 encoding decodes to nil.
// `go test -fuzz=FuzzCellEncoding ./internal/ioa`.
func FuzzCellEncoding(f *testing.F) {
	f.Add(int64(1), []byte{1, 2, 0, 3, 1, 0, 5, 7, 9})
	f.Add(int64(7), []byte{5, 6, 1, 0, 0x9f, 3, 2, 0, 0, 1, 17, 0, 0x83})
	f.Add(int64(-2), []byte{9, 3, 1, 0, 0x81, 2, 42, 1, 0, 7, 0, 3, 0xff})
	f.Add(int64(3), []byte{2, 0xff, 1, 3, 0x55, 0, 0x8e, 1, 0, 0x8d, 2})
	f.Add(int64(5), []byte{1, 2, 1, 0, 0x80, 0, 0, 0x80, 0, 1, 0, 0, 0})
	// Compose(L0, L1), L1 stepping on its own: states that differ in the
	// last leaf alone, which an encoder that stops a leaf early merges.
	f.Add(int64(0), []byte{1, 0, 0, 0, 0, 0, 2})
	// Compose(Compose(L0, L1), L2, L3), every leaf stepping on its own
	// and L3 with four states: a decoder that fills the leaves in another
	// order than the encoder wrote them puts one leaf's index in
	// another's slot.
	f.Add(int64(11), []byte{5, 1, 0, 0x80, 1, 0, 0x80, 2, 0, 0x80, 0, 0, 0x80, 2})
	f.Fuzz(func(t *testing.T, seed int64, shape []byte) {
		a := (&treeGen{rng: rand.New(rand.NewSource(seed)), shape: shape}).tree(0)
		under := a
		for ioa.Wrapped(under) != nil {
			under = ioa.Wrapped(under)
		}
		_, composite := under.(*ioa.Composite)
		encode, decode := ioa.Encoder(a), ioa.Decoder(a)
		if composite != (decode != nil) {
			t.Fatalf("%s: a decoder is %v, a composition under the wrappers %v", a.Name(), decode != nil, composite)
		}
		var sc ioa.Scratch
		encOf := make(map[string]string) // key → encoding
		keyOf := make(map[string]string) // encoding → key
		check := func(s ioa.State) (fresh bool) {
			k, enc := s.Key(), string(encode(nil, s))
			if decode != nil {
				sc.Reset()
				for _, d := range []ioa.State{decode(nil, []byte(enc)), decode(&sc, []byte(enc))} {
					if d == nil {
						t.Fatalf("%s: state %q encodes as %x, which decodes to nil", a.Name(), k, enc)
					}
					if d.Key() != k || string(encode(nil, d)) != enc {
						t.Fatalf("%s: state %q encodes as %x, which decodes to %q, encoded %x", a.Name(), k, enc, d.Key(), encode(nil, d))
					}
				}
			}
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
			if decode != nil {
				if got, want := stepView(a, decode(nil, []byte(enc))), stepView(a, s); !slices.Equal(got, want) {
					t.Fatalf("%s: state %q decoded steps to\n %q\nnot as it does, to\n %q", a.Name(), k, got, want)
				}
			}
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
		if !composite {
			return
		}
		for _, s := range order[:min(len(order), 8)] {
			for _, m := range malformed(s) {
				if enc := encode(nil, m); enc[0] != 0 || !bytes.Equal(enc[1:], ioa.AppendState(nil, m)) {
					t.Fatalf("%s: malformed state %q encodes as %x, not tag 0 and its key", a.Name(), m.Key(), enc)
				} else if d := decode(nil, enc); d != nil {
					t.Fatalf("%s: malformed state %q encodes with tag 0, which decodes to %q", a.Name(), m.Key(), d.Key())
				}
			}
		}
	})
}
