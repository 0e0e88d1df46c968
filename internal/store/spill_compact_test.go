package store

// Read-side battery of the Spill (ISSUE 23): the block-decoding cursor
// and what it refuses, the two arms of MergeIntern held to each other,
// tiered compaction held to its bound and to the arena Store, and
// faults planted in compacted runs.

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
// run, fails the scanning MergeIntern and the compaction that reads the
// run — by name, naming the run, latched, and with nothing admitted. The
// ID and the length are the two fields the cursor used not to check.
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
			sp.forceArm = armScan
			n, err := sp.MergeIntern(batchOf("aaa", "zzz"), func([]byte, ID) error {
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

// TestSpillScanAndProbeAgree: the two arms of MergeIntern, forced in
// turn on equal run sets and equal batches, admit the same encodings
// under the same IDs in the same order and write the same run, byte for
// byte — round after round, through the compactions the rounds set off.
func TestSpillScanAndProbeAgree(t *testing.T) {
	type admitted struct {
		enc string
		id  ID
	}
	rng := testseed.Rand(t, 23)
	universe := shuffledKeys(900, 23)
	var last [2]string // newest run file of each arm
	arms := [2]*Spill{}
	for a, arm := range []mergeArm{armScan, armProbe} {
		arms[a] = newTestSpill(t, SpillOptions{MemBudget: 512, AfterFlush: func(p string) { last[a] = p }})
		arms[a].forceArm = arm
	}
	next := 0
	for round := 0; round < 25; round++ {
		// Some keys through the hot batch, then a batch of new and old.
		for i := 0; i < 20 && next < len(universe); i, next = i+1, next+1 {
			for _, sp := range arms {
				sp.Intern(ioa.KeyState(universe[next]))
			}
		}
		var cands []string
		for i := rng.Intn(30); i > 0 && next < len(universe); i, next = i-1, next+1 {
			cands = append(cands, universe[next])
		}
		for i := rng.Intn(30); i > 0; i-- {
			if old := universe[rng.Intn(next)]; !slices.Contains(cands, old) {
				cands = append(cands, old)
			}
		}
		var got [2][]admitted
		var img [2][]byte
		for a, sp := range arms {
			last[a] = ""
			n, err := sp.MergeIntern(batchOf(cands...), func(enc []byte, id ID) error {
				got[a] = append(got[a], admitted{string(enc), id})
				return nil
			})
			if err != nil || n != len(got[a]) {
				t.Fatalf("round %d arm %d: MergeIntern = %d, %v; emitted %d", round, a, n, err, len(got[a]))
			}
			if last[a] != "" {
				if img[a], err = os.ReadFile(last[a]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !slices.Equal(got[0], got[1]) {
			t.Fatalf("round %d: scan admitted %v, probe %v", round, got[0], got[1])
		}
		if !bytes.Equal(img[0], img[1]) {
			t.Fatalf("round %d: the arms wrote different runs (%d and %d bytes)", round, len(img[0]), len(img[1]))
		}
	}
	scan, probe := arms[0].Stats(), arms[1].Stats()
	if scan.MergesProbed != 0 || probe.MergesProbed != 25 || scan.Compactions == 0 || scan.Compactions != probe.Compactions {
		t.Fatalf("scan %+v\nprobe %+v", scan, probe)
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
// damage and the next merge, in either arm, to fail cleanly. The header
// is on no lookup's way, so lookups past a damaged header still answer,
// and answer right; the truncation is seen by the probing arm because it
// asks each file for its length.
func TestSpillCompactedRunFaults(t *testing.T) {
	for _, fault := range runFaults {
		for _, arm := range []mergeArm{armScan, armProbe} {
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
				sp.forceArm = arm
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
				for which, k := range map[string]string{"first": keys[0], "last": keys[r.count-1]} {
					id, ok, err := sp.searchRuns([]byte(k), &sp.lkBlock, &sp.lkKey)
					if which == fault.breaks {
						wantCorrupt(t, "lookup of "+k, err, victim, "")
					} else if err != nil || !ok || int(id) >= r.count {
						t.Fatalf("lookup of %s = (%d, %v), %v", k, id, ok, err)
					}
				}
				n, err := sp.MergeIntern(batchOf(keys[0], "state-99999"), nil)
				if arm == armProbe && fault.name == "header" {
					if n != 1 || err != nil {
						t.Fatalf("probing past a damaged header: %d, %v", n, err)
					}
					return
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
			if id, ok := sp.search(k, f.hash(k), &sp.lkBlock, &sp.lkKey); ok != want || (ok && id != wantID) {
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
// fail with ErrCorruptRun.
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
		r := &runMeta{f: file, path: path, size: size, count: int(count), base: 1000}
		sp := &Spill{}
		curs, err := sp.openCursors([]*runMeta{r})
		var prev []byte
		for steps := 0; err == nil && !curs[0].done; steps++ {
			c := curs[0]
			if steps >= int(count) {
				t.Fatalf("cursor still going after %d of %d entries", steps, count)
			}
			if steps > 0 && bytes.Compare(prev, c.key) >= 0 {
				t.Fatalf("key %q after %q", c.key, prev)
			}
			if c.id < r.base || c.id >= r.base+uint64(count) {
				t.Fatalf("id %d outside [%d, %d)", c.id, r.base, r.base+uint64(count))
			}
			if int64(len(c.key)) > size || int64(cap(c.buf)) > size+binary.MaxVarintLen64 {
				t.Fatalf("key of %d bytes, buffer of %d, from a file of %d", len(c.key), cap(c.buf), size)
			}
			prev = append(prev[:0], c.key...)
			err = c.next()
		}
		if err != nil && !errors.Is(err, ErrCorruptRun) {
			t.Fatalf("cursor failed with %v, want ErrCorruptRun", err)
		}
	})
}
