package proof_test

// VerifyOpts against the reference loop on random small table pairs
// and random multi-valued maps: the walk of A, checked as it goes, must
// return the sequential reference's error string at every worker count.

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/proof"
)

// decodeMapping reads nA = 1 + data[0]%4 states of A and nB =
// 1 + data[1]%4 of B (bit 7 of either adds a second start state), then
// one map byte per state of A — bit j < nB makes bj a possibility, bit
// 4 adds "ghost", a state of neither automaton, and bit 5 reverses the
// list — then one step per byte triple, at most 24: bit 7 of the first
// byte picks B, then (from, action, to). Both automata have the input
// i and the outputs x and y; A has the internal t, outside acts(B), and
// B the internal u.
func decodeMapping(data []byte) *proof.PossMapping {
	var hdr [2]byte
	copy(hdr[:], data)
	rest := data[min(len(data), 2):]
	nA, nB := 1+int(hdr[0]&0x7f)%4, 1+int(hdr[1]&0x7f)%4
	as, bs := make([]ioa.State, nA), make([]ioa.State, nB)
	for i := range as {
		as[i] = ks("a%d", i)
	}
	for j := range bs {
		bs[j] = ks("b%d", j)
	}
	startA, startB := as[:1], bs[:1]
	if hdr[0]&0x80 != 0 {
		startA = []ioa.State{as[nA-1], as[0]}
	}
	if hdr[1]&0x80 != 0 {
		startB = []ioa.State{bs[nB-1], bs[0]}
	}
	masks := make([]byte, nA)
	rest = rest[copy(masks, rest):]
	actsA := []ioa.Action{"i", "x", "y", "t"}
	actsB := []ioa.Action{"i", "x", "y", "u"}
	var stepsA, stepsB []ioa.Step
	for ; len(rest) >= 3 && len(stepsA)+len(stepsB) < 24; rest = rest[3:] {
		act := int(rest[1]) % 4
		if rest[0]&0x80 != 0 {
			stepsB = append(stepsB, ioa.Step{From: bs[int(rest[0]&0x7f)%nB], Act: actsB[act], To: bs[int(rest[2])%nB]})
		} else {
			stepsA = append(stepsA, ioa.Step{From: as[int(rest[0])%nA], Act: actsA[act], To: as[int(rest[2])%nA]})
		}
	}
	a := ioa.MustTable("A", ioa.MustSignature([]ioa.Action{"i"}, []ioa.Action{"x", "y"}, []ioa.Action{"t"}), startA, stepsA,
		[]ioa.Class{{Name: "c", Actions: ioa.NewSet("x", "y", "t")}})
	b := ioa.MustTable("B", ioa.MustSignature([]ioa.Action{"i"}, []ioa.Action{"x", "y"}, []ioa.Action{"u"}), startB, stepsB,
		[]ioa.Class{{Name: "c", Actions: ioa.NewSet("x", "y", "u")}})
	poss := make(map[string][]ioa.State, nA)
	for i, m := range masks {
		var row []ioa.State
		for j := range bs {
			if m>>j&1 == 1 {
				row = append(row, bs[j])
			}
		}
		if m&0x10 != 0 {
			row = append(row, ks("ghost"))
		}
		if m&0x20 != 0 {
			slices.Reverse(row)
		}
		poss[as[i].Key()] = row
	}
	return &proof.PossMapping{A: a, B: b, Map: func(s ioa.State) []ioa.State { return poss[s.Key()] }}
}

func FuzzVerifyMapping(f *testing.F) {
	// A and B the same two-state toggle under the identity: passes.
	f.Add([]byte{1, 1, 0x01, 0x02, 0, 1, 1, 1, 2, 0, 0x80, 1, 1, 0x81, 2, 0})
	// The same with A's internal t dropping the possibility: 2(b) fails.
	f.Add([]byte{1, 1, 0x01, 0x02, 0, 1, 1, 1, 2, 0, 0x80, 1, 1, 0x81, 2, 0, 1, 3, 0})
	// x has no step in B: 2(a) fails from b0, after the ghost and b1,
	// both outside Reach(B), are skipped.
	f.Add([]byte{1, 1, 0x33, 0x01, 0, 1, 1})
	// Two start states each way, one mapped to the ghost alone:
	// condition 1 fails.
	f.Add([]byte{0x81, 0x81, 0x10, 0x01, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := decodeMapping(data)
		agree(t, fmt.Sprintf("%x", data), h, explore.Options{})
	})
}
