package explore

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/ioa"
	"repro/internal/store"
)

// FuzzLevelMerge holds the barrier's merge of per-worker sets to one
// LevelSet fed every candidate in discovery order and read in insertion
// order: same encodings, same order, same kept candidate — the first
// discovery of each. The program's first byte picks 1–8 workers, its
// second whether hashes are forged to collide; every following four
// bytes are one candidate — its encoding, its concrete-state variant
// (orbit-mates under a canonicalizer share an encoding), how far its
// parent is past the previous candidate's (zero: the same parent) and,
// for a new parent, the worker that expands it, and its action. Parents
// come in increasing order and each is expanded by one worker, as the
// level engine's chunks are.
func FuzzLevelMerge(f *testing.F) {
	f.Add([]byte{1, 0, 5, 0, 3, 1, 5, 0, 1, 0})
	// Two encodings in both sets of two workers, one found first by the
	// second worker (parent 1) and one by the first (parent 2): a merge
	// that kept the first set's candidate, or the later parent's, keeps
	// another parent for one of them.
	f.Add([]byte{1, 0, 9, 0, 4, 0, 9, 1, 1, 1, 7, 0, 0, 2, 7, 2, 4, 3})
	f.Add([]byte{2, 1, 7, 1, 3, 0, 7, 2, 2, 1, 12, 2, 0, 2, 7, 0, 4, 3})
	f.Add([]byte{8, 0, 0, 0, 1, 0, 1, 0, 2, 1, 2, 1, 3, 2, 3, 0, 4, 3, 4, 1, 5, 7, 8, 1, 6, 5, 12, 0, 1, 6, 0, 2})
	f.Add([]byte{3, 1, 4, 0, 1, 0, 8, 0, 1, 1, 12, 0, 4, 2, 4, 0, 0, 2, 8, 0, 5, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 2 || len(prog) > 4<<10 {
			t.Skip()
		}
		w, forged := int(prog[0])%8+1, prog[1]&1 != 0
		hash := func(enc []byte) uint64 {
			if forged {
				return store.Hash(enc) & 3 // four hashes for every encoding
			}
			return store.Hash(enc)
		}
		var oracle store.LevelSet[cand]
		lv := &levelScratch{sets: make([]store.LevelSet[cand], w), pos: make([]int, w)}
		parent, set := store.ID(0), 0
		for p := prog[2:]; len(p) >= 4; p = p[4:] {
			if step := store.ID(p[2] % 3); step > 0 {
				parent, set = parent+step, int(p[2]/3)%w
			}
			enc := fuzzEncoding(p[0])
			c := cand{state: fuzzState(enc, p[1]), parent: parent, act: ioa.Action("abcd"[p[3]%4 : p[3]%4+1])}
			oracle.Add(enc, hash(enc), c)
			lv.sets[set].Add(enc, hash(enc), c)
		}
		got := lv.gather()
		if len(got) != oracle.Len() {
			t.Fatalf("merged %d encodings, one set holds %d", len(got), oracle.Len())
		}
		for i, m := range got {
			genc, gh := lv.encoding(m)
			if !bytes.Equal(genc, oracle.Key(i)) || gh != oracle.Hash(i) {
				t.Fatalf("entry %d: merged encoding %q, one set has %q", i, genc, oracle.Key(i))
			}
			g, o := m.cand, oracle.Payload(i)
			if g.state.Key() != o.state.Key() || g.parent != o.parent || g.act != o.act {
				t.Fatalf("entry %d (%q): merged kept (%s, %d, %s), one set keeps (%s, %d, %s)",
					i, genc, g.state.Key(), g.parent, g.act, o.state.Key(), o.parent, o.act)
			}
		}
	})
}

// fuzzEncoding maps a byte to one of 64 encodings: one 8-byte head
// shared by many, heads one byte shorter and longer, tails with zero
// bytes and encodings that are prefixes of others.
func fuzzEncoding(b byte) []byte {
	heads := [...]string{"", "ABCDEFG", "ABCDEFGH", "ABCDEFGHI"}
	tail := "\x00\x01a\x00"[:int(b/4)%5]
	if b&0x80 != 0 {
		tail = "\x00" + tail
	}
	return []byte(heads[b%4] + tail)
}

// fuzzState is a candidate's concrete state. Its key starts with its
// encoding, so distinct encodings never share a key, and ends with a
// variant, so one encoding holds orbit-mates whose kept representative
// shows.
func fuzzState(enc []byte, variant byte) ioa.State {
	return ioa.KeyState(hex.EncodeToString(enc) + "/" + string(rune('0'+variant%3)))
}
