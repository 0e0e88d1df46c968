package store

// Read-side battery of the Spill: the block-decoding cursor and what it
// refuses, MergeIntern held to the arena Store and to the run format,
// tiered compaction held to its bound, and faults planted in compacted
// runs.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/ioa"
	"repro/internal/testseed"
)

// overwrite replaces len(b) bytes of the file at off.
func overwrite(t testing.TB, path string, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// A run fault damages a run file in place, never changing its length
// but for the truncation.
var runFaults = []struct {
	name   string
	detail string // what the cursor calls it
	breaks string // the point lookup that reads the damage: of the run's "first" key, its "last", or none
	apply  func(t testing.TB, path string)
}{
	// The first entry's ID delta (after shared = 0, a one-byte suffix
	// length and the suffix) rewritten to 127: past the count of any run
	// these tests build.
	{"id past count", "id delta out of range", "first", func(t testing.TB, path string) {
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		overwrite(t, path, spillHeaderLen+2+int64(img[spillHeaderLen+1]), []byte{0x7f})
	}},
	// The first entry's suffix length rewritten to 2^40.
	{"2^40 suffix", "truncated key suffix", "first", func(t testing.TB, path string) {
		overwrite(t, path, spillHeaderLen+1, binary.AppendUvarint(nil, 1<<40))
	}},
	// The first block's shared-prefix byte, which must be 0, given a
	// continuation bit.
	{"flipped bit", "shared prefix exceeds previous key", "first", func(t testing.TB, path string) {
		overwrite(t, path, spillHeaderLen, []byte{0x80})
	}},
	{"truncated", "unexpected EOF", "last", func(t testing.TB, path string) {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()-3); err != nil {
			t.Fatal(err)
		}
	}},
	{"header", "bad magic", "", func(t testing.TB, path string) {
		overwrite(t, path, 0, []byte("IOSPILL0"))
	}},
}

// wantCorrupt requires err to be an ErrCorruptRun naming path and
// saying detail.
func wantCorrupt(t *testing.T, what string, err error, path, detail string) {
	t.Helper()
	if !errors.Is(err, ErrCorruptRun) || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), detail) {
		t.Fatalf("%s: err = %v, want ErrCorruptRun naming %s: %s", what, err, path, detail)
	}
}

// TestSpillCursorRefusesDamagedRun: every fault, planted in a flushed
// run, fails a MergeIntern with a candidate in the damaged block and the
// compaction that reads the run — by name, naming the run, latched, and
// with nothing admitted, not even the new candidate resolved before the
// damage was. The ID and the length are the two fields the cursor used
// not to check.
func TestSpillCursorRefusesDamagedRun(t *testing.T) {
	for _, fault := range runFaults {
		t.Run(fault.name+"/merge", func(t *testing.T) {
			var paths []string
			sp := newTestSpill(t, SpillOptions{MemBudget: 1 << 10, AfterFlush: func(p string) { paths = append(paths, p) }})
			for _, k := range shuffledKeys(6, 11) {
				sp.Intern(ioa.KeyState(k))
			}
			if err := sp.Flush(); err != nil || len(paths) != 1 {
				t.Fatalf("Flush: %v, runs %v", err, paths)
			}
			fault.apply(t, paths[0])
			n, err := sp.MergeIntern(batchOf("aaa", "state-00000", "zzz"), func([]byte, ID) error {
				t.Error("a candidate was admitted past a damaged run")
				return nil
			})
			wantCorrupt(t, "MergeIntern", err, paths[0], fault.detail)
			wantCorrupt(t, "Err", sp.Err(), paths[0], fault.detail)
			if n != 0 || sp.Len() != 6 {
				t.Fatalf("admitted %d, Len %d", n, sp.Len())
			}
		})
		t.Run(fault.name+"/compaction", func(t *testing.T) {
			var paths []string
			sp := newTestSpill(t, SpillOptions{AfterFlush: func(p string) { paths = append(paths, p) }})
			for run := 0; run < compactFanIn; run++ {
				for i := 0; i < 5; i++ {
					sp.Intern(ioa.KeyState(fmt.Sprintf("key-%d-%d", i, run)))
				}
				if run == compactFanIn-1 {
					fault.apply(t, paths[1])
				}
				err := sp.Flush()
				if run < compactFanIn-1 {
					if err != nil || len(paths) != run+1 {
						t.Fatalf("Flush %d: %v, runs %v", run, err, paths)
					}
					continue
				}
				wantCorrupt(t, "Flush", err, paths[1], fault.detail)
				wantCorrupt(t, "Err", sp.Err(), paths[1], fault.detail)
			}
			// The inputs are left in place and no output is.
			if s := sp.Stats(); s.SpillRuns != compactFanIn || s.Compactions != 0 {
				t.Fatalf("after a failed compaction: %+v", s)
			}
			if id, fresh := sp.Intern(ioa.KeyState("later")); fresh || id != None {
				t.Fatalf("Intern after the latch = (%d, %v)", id, fresh)
			}
		})
	}
}

// runImage is the run file holding keys, in order, under IDs from the
// run's base, with a restart point every every entries: the format
// written out by hand, the oracle for what a run writer puts on disk.
func runImage(keys []string, every int) []byte {
	img := []byte(spillMagic)
	prev := ""
	for i, k := range keys {
		shared := 0
		for i%every != 0 && shared < min(len(prev), len(k)) && prev[shared] == k[shared] {
			shared++
		}
		img = binary.AppendUvarint(img, uint64(shared))
		img = binary.AppendUvarint(img, uint64(len(k)-shared))
		img = append(img, k[shared:]...)
		img = binary.AppendUvarint(img, uint64(i))
		prev = k
	}
	return img
}

// TestSpillMergeMatchesStore holds MergeIntern to the arena Store round
// after round, through the compactions the rounds set off. Batches of a
// few candidates against many runs alternate with batches of hundreds;
// both mix new keys with old ones from every run. The merge must admit
// what the Store admits when it interns the batch in Order, in that
// order and under the Store's IDs, and write them as one run whose
// bytes are the format's.
func TestSpillMergeMatchesStore(t *testing.T) {
	type admitted struct {
		enc string
		id  ID
	}
	rng := testseed.Rand(t, 23)
	universe := shuffledKeys(4000, 23)
	st := New(Options{})
	var img []byte // the run written at runPath(newest), as registered
	newest := ""
	sp := newTestSpill(t, SpillOptions{MemBudget: 512, AfterFlush: func(p string) {
		if p == newest && img == nil {
			var err error
			if img, err = os.ReadFile(p); err != nil {
				t.Fatal(err)
			}
		}
	}})
	next := 0
	for round := 0; round < 40; round++ {
		for i := 0; i < 20 && next < len(universe); i, next = i+1, next+1 {
			k := []byte(universe[next])
			wantID, _ := st.InternEncoded(k, Hash(k))
			if id, fresh := sp.InternEncoded(k, Hash(k)); id != wantID || !fresh {
				t.Fatalf("round %d: InternEncoded(%s) = (%d, %v), store %d", round, k, id, fresh, wantID)
			}
		}
		size := 1 + rng.Intn(4)
		if round%2 == 1 {
			size = 100 + rng.Intn(200)
		}
		var cands Batch
		for cands.Len() < size {
			k := []byte(universe[rng.Intn(next)])
			if rng.Intn(2) == 0 && next < len(universe) {
				k, next = []byte(universe[next]), next+1
			}
			if _, dup := cands.Lookup(k, Hash(k)); !dup {
				cands.Add(k, Hash(k))
			}
		}
		var want, got []admitted
		var wantKeys []string
		for _, i := range cands.Order() {
			if id, fresh := st.InternEncoded(cands.Key(i), cands.Hash(i)); fresh {
				want = append(want, admitted{string(cands.Key(i)), id})
				wantKeys = append(wantKeys, string(cands.Key(i)))
			}
		}
		img, newest = nil, sp.runPath(uint64(sp.Len()))
		n, err := sp.MergeIntern(&cands, func(enc []byte, id ID) error {
			got = append(got, admitted{string(enc), id})
			return nil
		})
		if err != nil || n != len(got) || !slices.Equal(got, want) {
			t.Fatalf("round %d, %d candidates: MergeIntern = %d, %v\nadmitted %v\nstore     %v", round, size, n, err, got, want)
		}
		if wantImg := runImage(wantKeys, sp.blockEvery); len(want) > 0 && !bytes.Equal(img, wantImg) {
			t.Fatalf("round %d: the merged run holds %d bytes, the format %d", round, len(img), len(wantImg))
		} else if len(want) == 0 && img != nil {
			t.Fatalf("round %d: a run was written for no fresh key", round)
		}
	}
	if s := sp.Stats(); s.Compactions == 0 || s.SpillRuns < 3 || s.States != st.Len() {
		t.Fatalf("stats %+v, store holds %d", s, st.Len())
	}
}

// runFiles lists the run files (and any half-written merge) in dir.
func runFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "run*"))
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(files)
	return files
}

// TestSpillCompactionBound: after any registration every tier holds
// fewer than compactFanIn runs, so a set holds at most (k-1)(tiers+1);
// the directory holds the live runs and nothing else — every input of
// every compaction is gone, by name unless the output took the name —
// and every key still resolves to the ID it was given.
func TestSpillCompactionBound(t *testing.T) {
	dir := t.TempDir()
	reported := map[string]bool{}
	sp := newTestSpill(t, SpillOptions{Dir: dir, MemBudget: 2 << 10, AfterFlush: func(p string) { reported[p] = true }})
	check := func() {
		t.Helper()
		var live []string
		tiers := 0
		for _, r := range sp.runs {
			live = append(live, r.path)
			tiers = max(tiers, r.tier())
		}
		slices.Sort(live)
		if files := runFiles(t, dir); !slices.Equal(files, live) {
			t.Fatalf("directory holds %v, live runs are %v", files, live)
		}
		if bound := (compactFanIn - 1) * (tiers + 1); len(live) > bound {
			t.Fatalf("%d runs, bound %d for %d tiers", len(live), bound, tiers)
		}
	}
	keys := gridKeys(6, 5)
	for i, k := range keys {
		if id, fresh := sp.InternEncoded(k, Hash(k)); !fresh || id != ID(i) {
			t.Fatalf("key %d interned as (%d, %v): %v", i, id, fresh, sp.Err())
		}
		if i%64 == 0 {
			check()
		}
	}
	if err := sp.Flush(); err != nil {
		t.Fatal(err)
	}
	check()
	s := sp.Stats()
	if s.Compactions == 0 || len(reported) <= s.SpillRuns || s.SpilledStates != len(keys) {
		t.Fatalf("%d paths reported, stats %+v", len(reported), s)
	}
	for i, k := range keys {
		if id, fresh := sp.InternEncoded(k, Hash(k)); fresh || id != ID(i) {
			t.Fatalf("key %d resolves to (%d, %v) after %d compactions", i, id, fresh, s.Compactions)
		}
	}
	t.Logf("%d keys: %d runs after %d compactions, %d bytes live, %d resident", len(keys), s.SpillRuns, s.Compactions, s.SpilledBytes, s.ResidentBytes)
}

// TestSpillCompactedRunFaults plants each fault in the first compacted
// output (AfterFlush reports a path for the second time when a merged
// run takes it over) and requires the next point lookup that reads the
// damage, and the next merge, to fail cleanly. Every merge asks each
// run file for its length and reads its magic, so the truncation and
// the header fail a merge of many candidates (arm1: every key of the
// damaged run and a new one) and of one (arm2: the run's first key)
// alike. The header is on no lookup's way, so lookups past a damaged
// header still answer, and answer right.
func TestSpillCompactedRunFaults(t *testing.T) {
	for _, fault := range runFaults {
		for arm := 1; arm <= 2; arm++ {
			t.Run(fmt.Sprintf("%s/arm%d", fault.name, arm), func(t *testing.T) {
				seen := map[string]bool{}
				victim := ""
				sp := newTestSpill(t, SpillOptions{MemBudget: 512, AfterFlush: func(p string) {
					if seen[p] && victim == "" {
						victim = p
						fault.apply(t, p)
					}
					seen[p] = true
				}})
				var keys []string
				for i := 0; victim == "" && i < 500; i++ {
					keys = append(keys, fmt.Sprintf("state-%05d", i))
					sp.Intern(ioa.KeyState(keys[i]))
				}
				if victim == "" || sp.Err() != nil {
					t.Fatalf("no compaction in %d keys (Err %v)", len(keys), sp.Err())
				}
				// The damaged run is the oldest and holds the first count
				// keys, which were interned in key order: keys[0] is the
				// first entry of its first block, keys[count-1] its last.
				r := sp.runs[0]
				if r.path != victim || r.count >= 127 {
					t.Fatalf("victim %s, oldest run %s of %d keys", victim, r.path, r.count)
				}
				for which, i := range map[string]int{"first": 0, "last": r.count - 1} {
					id, ok, err := sp.searchRuns([]byte(keys[i]), &sp.lookup)
					if which == fault.breaks {
						wantCorrupt(t, "lookup of "+keys[i], err, victim, "")
					} else if err != nil || !ok || id != ID(i) {
						t.Fatalf("lookup of %s = (%d, %v), %v", keys[i], id, ok, err)
					}
				}
				cands := batchOf(keys[0])
				if arm == 1 {
					cands = batchOf(append(slices.Clone(keys[:r.count]), "state-99999")...)
				}
				n, err := sp.MergeIntern(cands, nil)
				if n != 0 {
					t.Fatalf("admitted %d past a damaged run", n)
				}
				wantCorrupt(t, "MergeIntern", err, victim, "")
				wantCorrupt(t, "Err", sp.Err(), victim, "")
			})
		}
	}
}

// TestSpillProgramsMatchStore runs random intern programs — single
// interns, re-interns of old keys, MergeIntern batches of old and new,
// flushes — through a Spill with a tiny budget and the arena Store, under
// the real hash and under forged ones that put every key on one chain
// and through one filter. Every (ID, fresh) agrees, and at the end so do
// Has and a probe's Lookup, for members and non-members.
func TestSpillProgramsMatchStore(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		rng := testseed.Rand(t, 100+seed)
		f := forgers[int(seed)%2] // the real hash, or one constant
		st := New(Options{})
		sp := newTestSpill(t, SpillOptions{MemBudget: int64(64 + rng.Intn(700)), BlockEvery: 1 + rng.Intn(16)})
		var known [][]byte
		ids := map[string]ID{}
		key := func() []byte {
			if len(known) > 0 && rng.Intn(3) == 0 {
				return known[rng.Intn(len(known))]
			}
			return []byte(fmt.Sprintf("k%04d", rng.Intn(3000)))
		}
		intern := func(k []byte) {
			wantID, wantFresh := st.InternEncoded(k, f.hash(k))
			if id, fresh := sp.InternEncoded(k, f.hash(k)); id != wantID || fresh != wantFresh {
				t.Fatalf("seed %d: InternEncoded(%q) = (%d, %v), store (%d, %v): %v", seed, k, id, fresh, wantID, wantFresh, sp.Err())
			}
			if wantFresh {
				known, ids[string(k)] = append(known, k), wantID
			}
		}
		for op := 0; op < 400; op++ {
			switch rng.Intn(10) {
			case 0:
				if err := sp.Flush(); err != nil {
					t.Fatal(err)
				}
			case 1, 2:
				var cands Batch
				for i := rng.Intn(40); i > 0; i-- {
					k := key()
					if _, dup := cands.Lookup(k, f.hash(k)); !dup {
						cands.Add(k, f.hash(k))
					}
				}
				// The oracle interns the batch in its order, one by one.
				want := map[string]ID{}
				for _, i := range cands.Order() {
					if id, fresh := st.InternEncoded(cands.Key(i), cands.Hash(i)); fresh {
						want[string(cands.Key(i))], ids[string(cands.Key(i))] = id, id
						known = append(known, slices.Clone(cands.Key(i)))
					}
				}
				n, err := sp.MergeIntern(&cands, func(enc []byte, id ID) error {
					if w, ok := want[string(enc)]; !ok || w != id {
						return fmt.Errorf("admitted %q as %d, store says %d (fresh %v)", enc, id, w, ok)
					}
					return nil
				})
				if err != nil || n != len(want) {
					t.Fatalf("seed %d: MergeIntern = %d, %v; store admitted %d", seed, n, err, len(want))
				}
			default:
				intern(key())
			}
		}
		if sp.Len() != st.Len() || sp.Err() != nil {
			t.Fatalf("seed %d: Len %d, store %d, Err %v", seed, sp.Len(), st.Len(), sp.Err())
		}
		probe := sp.Probe()
		for i := 0; i < 3000; i += 7 {
			k := []byte(fmt.Sprintf("k%04d", i))
			wantID, want := ids[string(k)]
			if id, ok := sp.search(k, f.hash(k), &sp.lookup); ok != want || (ok && id != wantID) {
				t.Fatalf("seed %d: search(%q) = (%d, %v), store (%d, %v)", seed, k, id, ok, wantID, want)
			}
			if f.name != "fnv" {
				continue // Has and Lookup hash for themselves
			}
			if id, ok := sp.Has(ioa.KeyState(k)); ok != want || (ok && id != wantID) {
				t.Fatalf("seed %d: Has(%q) = (%d, %v), store (%d, %v)", seed, k, id, ok, wantID, want)
			}
			if id, _, ok := probe.Lookup(ioa.KeyState(k)); ok != want || (ok && id != wantID) {
				t.Fatalf("seed %d: Lookup(%q) = (%d, %v), store (%d, %v)", seed, k, id, ok, wantID, want)
			}
		}
		if s := sp.Stats(); s.SpillRuns == 0 {
			t.Fatalf("seed %d: never spilled: %+v", seed, s)
		}
	}
}

// validRun is a run file image of n keys, for fuzz seeds.
func validRun(t testing.TB, n int) []byte {
	var path string
	sp, err := NewSpill(SpillOptions{Dir: t.TempDir(), BlockEvery: 4, AfterFlush: func(p string) { path = p }})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	for _, k := range shuffledKeys(n, 31) {
		sp.Intern(ioa.KeyState(k))
	}
	if err := sp.Flush(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// FuzzRunCursor puts arbitrary bytes behind a valid header and claims
// count entries of them. The cursor must come to an end within count
// steps without panicking, hold no key and no buffer larger than the
// file (a varint and a minimal buffer aside), and either decode a
// strictly increasing key sequence with IDs inside the run's range or
// fail with ErrCorruptRun. Then the sparse index and the filter a
// writer would have built over what it decoded are put beside the
// bytes, and every key it decoded is looked up: found under the ID the
// cursor read, or refused with ErrCorruptRun — never absent, never
// under another ID.
func FuzzRunCursor(f *testing.F) {
	valid := validRun(f, 40)[spillHeaderLen:]
	f.Add(valid, uint16(40))
	f.Add(valid, uint16(41))
	f.Add(valid[:len(valid)/2], uint16(40))
	f.Add(binary.AppendUvarint([]byte{0}, 1<<40), uint16(1))
	f.Add([]byte{0, 1, 'a', 0, 0, 1, 'a', 1}, uint16(2))
	f.Add([]byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, body []byte, count uint16) {
		path := filepath.Join(t.TempDir(), "run.spill")
		if err := os.WriteFile(path, append([]byte(spillMagic), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		file, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		size := spillHeaderLen + int64(len(body))
		r := &runMeta{f: file, path: path, size: size, count: int(count), base: 1000, every: 4}
		sp := &Spill{}
		curs, err := sp.openCursors([]*runMeta{r})
		c := curs[0]
		var keys [][]byte
		var ids []uint64
		for err == nil {
			start := c.off - int64(c.hi-c.lo)
			if err = c.next(); err != nil || c.done {
				break
			}
			steps := len(keys)
			if steps >= int(count) {
				t.Fatalf("cursor still going after %d of %d entries", steps, count)
			}
			if steps > 0 && bytes.Compare(keys[steps-1], c.key) >= 0 {
				t.Fatalf("key %q after %q", c.key, keys[steps-1])
			}
			if c.id < r.base || c.id >= r.base+uint64(count) {
				t.Fatalf("id %d outside [%d, %d)", c.id, r.base, r.base+uint64(count))
			}
			if int64(len(c.key)) > size || int64(cap(c.buf)) > size+binary.MaxVarintLen64 {
				t.Fatalf("key of %d bytes, buffer of %d, from a file of %d", len(c.key), cap(c.buf), size)
			}
			if steps%r.every == 0 {
				r.blocks = append(r.blocks, blockMeta{off: start, first: len(r.keys), head: c.head})
				r.keys = append(r.keys, c.key...)
			}
			keys, ids = append(keys, slices.Clone(c.key)), append(ids, c.id)
		}
		if err != nil && !errors.Is(err, ErrCorruptRun) {
			t.Fatalf("cursor failed with %v, want ErrCorruptRun", err)
		}
		r.filter = newBloom(len(keys), defaultBloomPerKey)
		for _, k := range keys {
			r.filter.add(Hash(k))
		}
		var lookup runCursor
		for i, k := range keys {
			id, ok, err := sp.searchRun(r, k, Hash(k), &lookup)
			if err != nil && !errors.Is(err, ErrCorruptRun) || err == nil && (!ok || uint64(id) != ids[i]) {
				t.Fatalf("lookup of entry %d, %q = (%d, %v), %v; the cursor read ID %d", i, k, id, ok, err, ids[i])
			}
		}
	})
}
