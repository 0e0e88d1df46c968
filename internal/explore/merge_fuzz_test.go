package explore

import (
	"bytes"
	"encoding/hex"
	"slices"
	"strings"
	"testing"

	"repro/internal/ioa"
	"repro/internal/store"
)

// FuzzLevelMerge holds the barrier's merge of per-worker ordered sets
// to one LevelSet fed every candidate and then ordered (and, under a
// canonicalizer, sorted by key): same encodings, same order, same kept
// candidate. The program's first byte picks 1–8 workers, its second
// whether the merge runs by key and whether hashes are forged to
// collide; every following four bytes are one candidate — its
// encoding, its concrete-state variant, its (parent, act) crumb and the
// worker whose set it arrives in.
func FuzzLevelMerge(f *testing.F) {
	f.Add([]byte{1, 0, 5, 0, 3, 1, 5, 0, 1, 0})
	// One encoding in both sets, the lesser crumb arriving second in the
	// later worker's set: a merge that kept the first set's candidate
	// would keep parent 9.
	f.Add([]byte{2, 0, 7, 0, 9, 0, 7, 0, 2, 4, 12, 0, 4, 4})
	f.Add([]byte{2, 1, 7, 1, 9, 0, 7, 0, 9, 4, 12, 2, 4, 5})
	f.Add([]byte{8, 3, 0, 0, 1, 0, 1, 0, 2, 1, 2, 1, 3, 2, 3, 0, 4, 3, 4, 1, 5, 7, 8, 1, 6, 5, 12, 0, 1, 6})
	f.Add([]byte{3, 2, 4, 0, 1, 0, 8, 0, 1, 1, 12, 0, 1, 2, 4, 0, 0, 2, 8, 0, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 2 || len(prog) > 4<<10 {
			t.Skip()
		}
		w, byKey, forged := int(prog[0])%8+1, prog[1]&1 != 0, prog[1]&2 != 0
		hash := func(enc []byte) uint64 {
			if forged {
				return store.Hash(enc) & 3 // four hashes for every encoding
			}
			return store.Hash(enc)
		}
		oracle := store.LevelSet[cand]{Less: func(a, b cand) bool { return candLess(a, b, byKey) }}
		lv := newLevelScratch(w, byKey)
		for p := prog[2:]; len(p) >= 4; p = p[4:] {
			enc := fuzzEncoding(p[0])
			c := cand{state: fuzzState(enc, p[1], byKey), parent: store.ID(p[2] % 16), act: ioa.Action("abcd"[p[3]%4 : p[3]%4+1])}
			oracle.Add(enc, hash(enc), c)
			lv.add(int(p[3]/4)%w, enc, hash(enc), c)
		}
		want := make([]member, 0, oracle.Len())
		for _, i := range oracle.Order() {
			want = append(want, member{cand: oracle.Payload(i), entry: i})
		}
		if byKey {
			slices.SortFunc(want, func(a, b member) int { return strings.Compare(a.state.Key(), b.state.Key()) })
		}
		got := orderAndGather(lv)
		if len(got) != len(want) {
			t.Fatalf("merged %d encodings, one set holds %d", len(got), len(want))
		}
		for i := range want {
			genc, gh := lv.encoding(got[i])
			wenc := oracle.Key(want[i].entry)
			if !bytes.Equal(genc, wenc) || gh != oracle.Hash(want[i].entry) {
				t.Fatalf("entry %d: merged encoding %q, one set has %q", i, genc, wenc)
			}
			g, o := got[i].cand, want[i].cand
			if g.state.Key() != o.state.Key() || g.parent != o.parent || g.act != o.act {
				t.Fatalf("entry %d (%q): merged kept (%s, %d, %s), one set keeps (%s, %d, %s)",
					i, genc, g.state.Key(), g.parent, g.act, o.state.Key(), o.parent, o.act)
			}
		}
	})
}

// fuzzEncoding maps a byte to one of 64 encodings built to stress the
// order: one 8-byte head shared by many, heads one byte shorter and
// longer, tails with zero bytes (which pad a short key's head word
// exactly as a missing byte does) and encodings that are prefixes of
// others.
func fuzzEncoding(b byte) []byte {
	heads := [...]string{"", "ABCDEFG", "ABCDEFGH", "ABCDEFGHI"}
	tail := "\x00\x01a\x00"[:int(b/4)%5]
	if b&0x80 != 0 {
		tail = "\x00" + tail
	}
	return []byte(heads[b%4] + tail)
}

// fuzzState is a candidate's concrete state. Its key starts with its
// encoding, so distinct encodings never share a key; under a
// canonicalizer one encoding has orbit-mates told apart by a variant,
// without one it is the single state its bytes spell.
func fuzzState(enc []byte, variant byte, byKey bool) ioa.State {
	key := hex.EncodeToString(enc) + "/"
	if byKey {
		key += string(rune('0' + variant%3))
	}
	return ioa.KeyState(key)
}
