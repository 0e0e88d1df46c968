package store

// Index battery (ISSUE 18). The open-addressed Index replaced three
// bucket maps; what a bucket map gave for free and probing does not is
// tested here against map oracles: entries that share a full hash (one
// probe chain for a whole run), entries that share only their home
// slot, survival of every ordinal across doublings, and Reset. Hashes
// are forged through InternEncoded(enc, hash) and Batch.Add(enc, hash),
// which take the caller's word for them. The LevelSet over the Batch
// (ISSUE 19) rides the same programs: least payload per encoding,
// Order, and independence from arrival order.

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/testseed"
)

// forgers are the hash functions the battery runs under.
var forgers = []struct {
	name string
	hash func(enc []byte) uint64
}{
	{"fnv", Hash},
	{"constant", func([]byte) uint64 { return 0xfeedface }},
	{"four-low-bits", func(enc []byte) uint64 { return uint64(enc[0] & 3) }},
	{"top-byte", func(enc []byte) uint64 { return uint64(enc[0]) << 56 }},
}

// runIndexProgram interprets prog as a stream of keys and resets: 0xff
// resets the Batch; any other byte b takes the next 1 + b%3 bytes as a
// key and interns it into a Store and a Batch under hash, and offers it
// to a LevelSet with the program bytes still unread as payload (so each
// arrival of a key carries another payload, and the first must stay). All three are held to map oracles at
// every step and in full at every reset and the end. A Spill whose
// budget holds a handful of keys rides along (ISSUE 23): it interns
// every key under the same hash and must answer as the Store does
// through its flushes and compactions; a reset hands it the Batch as one
// MergeIntern, of members only.
func runIndexProgram(t *testing.T, prog []byte, hash func([]byte) uint64) {
	t.Helper()
	st := New(Options{})
	ids := map[string]ID{}
	sp := newTestSpill(t, SpillOptions{MemBudget: 96, BlockEvery: 1 + len(prog)%16})
	var batch Batch
	entries := map[string]int{}
	var set LevelSet[int]
	first := map[string]int{}
	checkBatch := func() {
		t.Helper()
		checkLevelSet(t, &set, first, hash)
		if batch.Len() != len(entries) {
			t.Fatalf("batch holds %d entries, oracle %d", batch.Len(), len(entries))
		}
		for k, want := range entries {
			i, ok := batch.Lookup([]byte(k), hash([]byte(k)))
			if !ok || i != want || string(batch.Key(i)) != k || batch.Hash(i) != hash([]byte(k)) {
				t.Fatalf("batch lost %q: Lookup = (%d, %v), want entry %d", k, i, ok, want)
			}
		}
	}
	for len(prog) > 0 {
		op := prog[0]
		prog = prog[1:]
		if op == 0xff {
			checkBatch()
			if n, err := sp.MergeIntern(&batch, nil); n != 0 || err != nil {
				t.Fatalf("MergeIntern of %d members admitted %d: %v", batch.Len(), n, err)
			}
			batch.Reset()
			clear(entries)
			set.Reset()
			clear(first)
			continue
		}
		n := min(1+int(op%3), len(prog))
		if n == 0 {
			break
		}
		key := prog[:n]
		prog = prog[n:]
		h := hash(key)

		id, fresh := st.InternEncoded(key, h)
		if want, seen := ids[string(key)]; seen != !fresh || (seen && id != want) || (!seen && id != ID(len(ids))) {
			t.Fatalf("InternEncoded(%q) = (%d, %v); oracle has it %v as %d of %d", key, id, fresh, seen, want, len(ids))
		}
		ids[string(key)] = id
		if sid, sfresh := sp.InternEncoded(key, h); sid != id || sfresh != fresh {
			t.Fatalf("spill InternEncoded(%q) = (%d, %v), store (%d, %v): %v", key, sid, sfresh, id, fresh, sp.Err())
		}

		i, ok := batch.Lookup(key, h)
		if want, seen := entries[string(key)]; ok != seen || (seen && i != want) {
			t.Fatalf("Batch.Lookup(%q) = (%d, %v); oracle has it %v as %d", key, i, ok, seen, want)
		}
		if !ok {
			entries[string(key)] = batch.Len()
			batch.Add(key, h)
		}

		set.Add(key, h, len(prog))
		if _, seen := first[string(key)]; !seen {
			first[string(key)] = len(prog)
		}
	}
	checkBatch()
	if st.Len() != len(ids) {
		t.Fatalf("store holds %d states, oracle %d", st.Len(), len(ids))
	}
	for k, want := range ids {
		if id, fresh := st.InternEncoded([]byte(k), hash([]byte(k))); fresh || id != want || string(st.Encoding(id)) != k {
			t.Fatalf("store lost %q: InternEncoded = (%d, %v), want (%d, false)", k, id, fresh, want)
		}
		if id, fresh := sp.InternEncoded([]byte(k), hash([]byte(k))); fresh || id != want {
			t.Fatalf("spill lost %q: InternEncoded = (%d, %v), want (%d, false): %v", k, id, fresh, want, sp.Err())
		}
	}
	if sp.Len() != len(ids) || sp.Err() != nil {
		t.Fatalf("spill holds %d states, oracle %d: %v", sp.Len(), len(ids), sp.Err())
	}
}

// checkLevelSet holds a set to its encoding → first-payload oracle:
// nothing lost, nothing merged, and Order is the oracle's keys, strictly
// increasing.
func checkLevelSet[P comparable](t *testing.T, set *LevelSet[P], first map[string]P, hash func([]byte) uint64) {
	t.Helper()
	if set.Len() != len(first) {
		t.Fatalf("level set holds %d entries, oracle %d", set.Len(), len(first))
	}
	for k, want := range first {
		if i, ok := set.Lookup([]byte(k), hash([]byte(k))); !ok || set.Payload(i) != want {
			t.Fatalf("level set lost %q (found %v) or kept a payload other than %v", k, ok, want)
		}
	}
	order := set.Order()
	if len(order) != len(first) {
		t.Fatalf("Order has %d entries, oracle %d", len(order), len(first))
	}
	for n, i := range order {
		if n > 0 && bytes.Compare(set.Key(order[n-1]), set.Key(i)) >= 0 {
			t.Fatalf("Order not strictly increasing at %d: %q then %q", n, set.Key(order[n-1]), set.Key(i))
		}
	}
}

// TestLevelSetArrivalOrder: a set keeps each encoding's first arrival,
// its entries in first-arrival order, whatever chains the hash forges;
// Order is a function of the encodings alone — every permutation gives
// the same one; and Reset keeps capacity while dropping every payload
// reference.
func TestLevelSetArrivalOrder(t *testing.T) {
	type pair struct {
		enc     []byte
		payload *int
	}
	var pairs []pair
	for i := 0; i < 300; i++ {
		pairs = append(pairs, pair{[]byte{byte(i % 37), byte(i % 5)}, &[]int{i}[0]})
	}
	rng := testseed.Rand(t, 29)
	for _, f := range forgers {
		var want [][]byte // the first permutation's Order
		for perm := 0; perm < 6; perm++ {
			rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
			var set LevelSet[*int]
			first := map[string]*int{}
			var arrivals [][]byte
			for _, p := range pairs {
				set.Add(p.enc, f.hash(p.enc), p.payload)
				if _, seen := first[string(p.enc)]; !seen {
					first[string(p.enc)] = p.payload
					arrivals = append(arrivals, p.enc)
				}
			}
			checkLevelSet(t, &set, first, f.hash)
			for i, enc := range arrivals {
				if !bytes.Equal(set.Key(i), enc) {
					t.Fatalf("%s: permutation %d: entry %d is %q, arrival %d was %q", f.name, perm, i, set.Key(i), i, enc)
				}
			}
			var got [][]byte
			for _, i := range set.Order() {
				got = append(got, slices.Clone(set.Key(i)))
			}
			if want == nil {
				want = got
			} else if !slices.EqualFunc(got, want, bytes.Equal) {
				t.Fatalf("%s: permutation %d ordered another set of encodings", f.name, perm)
			}

			n, kept := set.Len(), cap(set.payloads)
			set.Reset()
			if set.Len() != 0 || len(set.Order()) != 0 || cap(set.payloads) != kept || cap(set.arena) == 0 {
				t.Fatalf("%s: Reset left %d entries, payload capacity %d (was %d)", f.name, set.Len(), cap(set.payloads), kept)
			}
			for i, p := range set.payloads[:n] {
				if p != nil {
					t.Fatalf("%s: Reset kept payload %d alive", f.name, i)
				}
			}
			if _, ok := set.Lookup(pairs[0].enc, f.hash(pairs[0].enc)); ok {
				t.Fatalf("%s: Reset set still finds %q", f.name, pairs[0].enc)
			}
		}
	}
}

// indexPrograms are the table-driven cases and the fuzz seeds.
func indexPrograms() map[string][]byte {
	var dense, resets []byte
	for i := 0; i < 400; i++ {
		dense = append(dense, 1, byte(i), byte(i>>8)) // 400 distinct two-byte keys
		resets = append(resets, 1, byte(i%37), byte(i%5))
		if i%53 == 52 {
			resets = append(resets, 0xff)
		}
	}
	return map[string][]byte{
		"empty":         nil,
		"one-key-twice": {0, 'a', 0, 'a'},
		"prefixes":      {0, 'a', 1, 'a', 'a', 2, 'a', 'a', 'a', 0, 'a'},
		"dense":         dense,
		"resets":        resets,
		"reset-first":   {0xff, 0, 'x', 0xff, 0xff, 0, 'x'},
	}
}

func TestIndexAgainstOracle(t *testing.T) {
	for name, prog := range indexPrograms() {
		for _, f := range forgers {
			t.Run(name+"/"+f.name, func(t *testing.T) { runIndexProgram(t, prog, f.hash) })
		}
	}
}

func FuzzIndex(f *testing.F) {
	for _, prog := range indexPrograms() {
		for mode := range forgers {
			f.Add(prog, uint8(mode))
		}
	}
	f.Fuzz(func(t *testing.T, prog []byte, mode uint8) {
		if len(prog) > 1<<12 {
			t.Skip("a forged chain is quadratic; 4 KiB of program is plenty")
		}
		runIndexProgram(t, prog, forgers[int(mode)%len(forgers)].hash)
	})
}

// TestIndexSurvivesDoublings keeps a whole run on one probe chain (one
// forged hash, so one shard and one home slot) and, each time the
// shard's table doubles, checks that every earlier ID still resolves.
func TestIndexSurvivesDoublings(t *testing.T) {
	const forged = 0x0123456789abcdef
	st := New(Options{})
	ix := &st.shards[forged%shardCount].ix
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }
	doublings, slots := 0, len(ix.slots)
	for i := 0; i < 200; i++ {
		if id, fresh := st.InternEncoded(key(i), forged); !fresh || id != ID(i) {
			t.Fatalf("key %d interned as (%d, %v)", i, id, fresh)
		}
		if len(ix.slots) == slots {
			continue
		}
		if slots > 0 {
			doublings++
		}
		slots = len(ix.slots)
		if ix.n*4 > slots*3 {
			t.Fatalf("%d entries in %d slots: past three-quarters full", ix.n, slots)
		}
		for j := 0; j <= i; j++ {
			if id, fresh := st.InternEncoded(key(j), forged); fresh || id != ID(j) {
				t.Fatalf("after doubling to %d slots key %d resolves to (%d, %v)", slots, j, id, fresh)
			}
		}
	}
	if doublings < 3 {
		t.Fatalf("table doubled %d times, want at least 3", doublings)
	}
}

// TestSpillForgedCollisionAcrossFlush: distinct encodings under one
// forged hash stay distinct in the hot batch, through the flush that
// turns the batch into a run (whose bloom filter then passes every one
// of them), and in the batch that follows.
func TestSpillForgedCollisionAcrossFlush(t *testing.T) {
	const forged = 42
	sp := newTestSpill(t, SpillOptions{MemBudget: 512, BlockEvery: 4})
	key := func(i int) []byte { return []byte(fmt.Sprintf("collide-%03d", i)) }
	const n = 157
	for i := 0; i < n; i++ {
		if id, fresh := sp.InternEncoded(key(i), forged); !fresh || id != ID(i) {
			t.Fatalf("key %d interned as (%d, %v)", i, id, fresh)
		}
		// One from the newest run or the hot batch, one from the oldest.
		for _, j := range []int{i, 0} {
			if id, fresh := sp.InternEncoded(key(j), forged); fresh || id != ID(j) {
				t.Fatalf("after %d interns key %d resolves to (%d, %v)", i+1, j, id, fresh)
			}
		}
	}
	if err := sp.Err(); err != nil {
		t.Fatal(err)
	}
	if s := sp.Stats(); s.SpillRuns < 3 || s.States != n || s.SpilledStates == n {
		t.Fatalf("stats %+v: want at least 3 runs, %d states and a non-empty hot batch", s, n)
	}
	for i := 0; i < n; i++ {
		if id, fresh := sp.InternEncoded(key(i), forged); fresh || id != ID(i) {
			t.Fatalf("key %d resolves to (%d, %v) at the end", i, id, fresh)
		}
	}
	if _, fresh := sp.InternEncoded(bytes.Repeat([]byte{'z'}, 11), forged); !fresh {
		t.Fatal("an unseen encoding under the forged hash was reported as seen")
	}
}
