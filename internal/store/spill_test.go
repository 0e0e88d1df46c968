package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/ioa"
)

// newTestSpill returns a spill with a tiny budget so even small key
// sets cross several runs, plus a cleanup that closes it.
func newTestSpill(t *testing.T, opts SpillOptions) *Spill {
	t.Helper()
	if opts.MemBudget == 0 {
		opts.MemBudget = 256
	}
	if opts.BlockEvery == 0 {
		opts.BlockEvery = 4
	}
	sp, err := NewSpill(opts)
	if err != nil {
		t.Fatalf("NewSpill: %v", err)
	}
	t.Cleanup(func() {
		if err := sp.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return sp
}

func shuffledKeys(n int, seed int64) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("state-%05d", i)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// batchOf is the candidate set MergeIntern takes: the distinct keys, in
// the order given (the batch orders itself).
func batchOf(keys ...string) *Batch {
	var b Batch
	for _, k := range keys {
		b.Add([]byte(k), Hash([]byte(k)))
	}
	return &b
}

// TestSpillMatchesStoreDifferential interns the same shuffled key
// sequence (with re-interns of every prior key mixed in) into the
// arena store and the spill and requires identical IDs and freshness
// verdicts at every step — the SeenSet contract that makes the two
// backends interchangeable under the engines.
func TestSpillMatchesStoreDifferential(t *testing.T) {
	keys := shuffledKeys(1200, 1)
	st := New(Options{})
	sp := newTestSpill(t, SpillOptions{})
	for i, k := range keys {
		wantID, wantFresh := InternState(st, ioa.KeyState(k))
		gotID, gotFresh := InternState(sp, ioa.KeyState(k))
		if gotID != wantID || gotFresh != wantFresh {
			t.Fatalf("InternState(%q) = (%d, %v), store = (%d, %v)", k, gotID, gotFresh, wantID, wantFresh)
		}
		// Periodically re-intern an already-seen key: it may be hot or
		// in any run by now.
		if i%7 == 0 {
			old := keys[i/2]
			wantID, _ = InternState(st, ioa.KeyState(old))
			gotID, gotFresh = InternState(sp, ioa.KeyState(old))
			if gotID != wantID || gotFresh {
				t.Fatalf("re-InternState(%q) = (%d, %v), want (%d, false)", old, gotID, gotFresh, wantID)
			}
		}
	}
	if sp.Len() != st.Len() {
		t.Fatalf("Len = %d, store = %d", sp.Len(), st.Len())
	}
	stats := sp.Stats()
	if stats.SpillRuns == 0 || stats.SpilledStates == 0 || stats.SpilledBytes == 0 {
		t.Fatalf("budget %d never spilled: %+v", sp.budget, stats)
	}
	if err := sp.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	// Lookup agrees with the store for members and non-members alike.
	for _, k := range []string{"state-00000", "state-00599", "state-01199", "absent", "state-99999"} {
		wantID, wantOK := LookupState(st, ioa.KeyState(k))
		if gotID, gotOK := LookupState(sp, ioa.KeyState(k)); gotID != wantID || gotOK != wantOK {
			t.Fatalf("Lookup(%q) = (%d, %v), store = (%d, %v)", k, gotID, gotOK, wantID, wantOK)
		}
	}
}

// TestSpillMergeIntern drives the batch path: sorted candidate batches
// per round, some fresh and some repeats, against the point-lookup
// oracle.
func TestSpillMergeIntern(t *testing.T) {
	st := New(Options{})
	sp := newTestSpill(t, SpillOptions{})
	rng := rand.New(rand.NewSource(3))
	universe := shuffledKeys(600, 4)
	next := 0
	for round := 0; round < 8; round++ {
		// Candidates: a fresh slab plus random already-seen repeats.
		var cands []string
		take := 40 + rng.Intn(60)
		for i := 0; i < take && next < len(universe); i++ {
			cands = append(cands, universe[next])
			next++
		}
		for i := 0; i < 30 && next > 0; i++ {
			cands = append(cands, universe[rng.Intn(next)])
		}
		sort.Strings(cands)
		uniq := cands[:0]
		for i, c := range cands {
			if i == 0 || c != cands[i-1] {
				uniq = append(uniq, c)
			}
		}
		var wantFresh []string
		wantIDs := map[string]ID{}
		for _, c := range uniq {
			if id, fresh := InternState(st, ioa.KeyState(c)); fresh {
				wantFresh = append(wantFresh, c)
				wantIDs[c] = id
			}
		}
		var gotFresh []string
		n, err := sp.MergeIntern(batchOf(uniq...),
			func(enc []byte, id ID) error {
				gotFresh = append(gotFresh, string(enc))
				if want := wantIDs[string(enc)]; id != want {
					return fmt.Errorf("emit(%q) id %d, want %d", enc, id, want)
				}
				return nil
			})
		if err != nil {
			t.Fatalf("round %d: MergeIntern: %v", round, err)
		}
		if n != len(wantFresh) {
			t.Fatalf("round %d: fresh = %d, want %d (%v vs %v)", round, n, len(wantFresh), gotFresh, wantFresh)
		}
		for j, c := range wantFresh {
			if gotFresh[j] != c {
				t.Fatalf("round %d: fresh[%d] = %q, want %q", round, j, gotFresh[j], c)
			}
		}
	}
	if sp.Len() != st.Len() {
		t.Fatalf("Len = %d, store = %d", sp.Len(), st.Len())
	}
	// Point lookups still see everything interned via the batch path.
	for _, k := range universe[:next] {
		wantID, _ := LookupState(st, ioa.KeyState(k))
		gotID, ok := LookupState(sp, ioa.KeyState(k))
		if !ok || gotID != wantID {
			t.Fatalf("Lookup(%q) = (%d, %v), want (%d, true)", k, gotID, ok, wantID)
		}
	}
}

// TestSpillTruncatedRunSurfacesCorruptError truncates a run file
// mid-record and asserts lookups degrade to a latched, wrapped
// ErrCorruptRun instead of a panic or a silently wrong verdict.
func TestSpillTruncatedRunSurfacesCorruptError(t *testing.T) {
	var paths []string
	sp := newTestSpill(t, SpillOptions{
		AfterFlush: func(path string) { paths = append(paths, path) },
	})
	keys := shuffledKeys(400, 5)
	for _, k := range keys {
		InternState(sp, ioa.KeyState(k))
	}
	if err := sp.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if len(paths) == 0 {
		t.Fatal("no runs flushed")
	}
	// Cut the first run mid-record.
	victim := paths[0]
	fi, err := os.Stat(victim)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if err := os.Truncate(victim, fi.Size()-7); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	// Some key now falls in the truncated tail; sweep all of them so
	// at least one lookup crosses the cut.
	found := false
	for _, k := range keys {
		if _, ok := LookupState(sp, ioa.KeyState(k)); !ok {
			found = true
		}
	}
	if !found && sp.Err() == nil {
		t.Fatal("truncation never observed")
	}
	if err := sp.Err(); !errors.Is(err, ErrCorruptRun) {
		t.Fatalf("Err = %v, want ErrCorruptRun", err)
	}
	// After the latch, Intern refuses quietly rather than corrupting
	// the ID space.
	if id, fresh := InternState(sp, ioa.KeyState("post-corruption")); fresh || id != None {
		t.Fatalf("Intern after latch = (%d, %v), want (None, false)", id, fresh)
	}
}

// TestSpillTruncatedRunFailsMergeIntern: the sequential cursor path
// must detect the same cut.
func TestSpillTruncatedRunFailsMergeIntern(t *testing.T) {
	var paths []string
	sp := newTestSpill(t, SpillOptions{
		AfterFlush: func(path string) { paths = append(paths, path) },
	})
	for _, k := range shuffledKeys(200, 6) {
		InternState(sp, ioa.KeyState(k))
	}
	if err := sp.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	fi, err := os.Stat(paths[0])
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if err := os.Truncate(paths[0], fi.Size()/2); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if _, err := sp.MergeIntern(batchOf("zzzz-fresh"), nil); !errors.Is(err, ErrCorruptRun) {
		t.Fatalf("MergeIntern = %v, want ErrCorruptRun", err)
	}
	if err := sp.Err(); !errors.Is(err, ErrCorruptRun) {
		t.Fatalf("Err = %v, want ErrCorruptRun", err)
	}
}

// TestSpillRefusesOrderBreak: one run of the 256 keys state-00000 …
// state-00255, interned in key order, whose first block stops
// increasing at entry 5 — its one suffix byte, file offset 40, rewritten
// from '5' to '0', so that it reads state-00000 again. Every way of
// reading that entry — InternEncoded and Lookup of the key it held, and
// MergeIntern of that key alone and of its whole block — must latch
// ErrCorruptRun, and none may take the key for absent: no second ID for
// a stored key.
func TestSpillRefusesOrderBreak(t *testing.T) {
	const damaged = "state-00005"
	var block []string
	for i := 0; i < 16; i++ {
		block = append(block, fmt.Sprintf("state-%05d", i))
	}
	arms := map[string]func(sp *Spill) error{
		"InternEncoded": func(sp *Spill) error {
			if id, fresh := sp.InternEncoded([]byte(damaged), Hash([]byte(damaged))); fresh || id != None && id != 5 {
				return fmt.Errorf("InternEncoded = (%d, %v)", id, fresh)
			}
			return nil
		},
		"Lookup": func(sp *Spill) error {
			if id, ok := LookupState(sp, ioa.KeyState(damaged)); ok && id != 5 {
				return fmt.Errorf("Lookup = (%d, %v)", id, ok)
			}
			return nil
		},
		"MergeIntern/one": func(sp *Spill) error {
			n, err := sp.MergeIntern(batchOf(damaged), nil)
			if n != 0 || !errors.Is(err, ErrCorruptRun) {
				return fmt.Errorf("MergeIntern admitted %d, err %v", n, err)
			}
			return nil
		},
		"MergeIntern/block": func(sp *Spill) error {
			n, err := sp.MergeIntern(batchOf(block...), nil)
			if n != 0 || !errors.Is(err, ErrCorruptRun) {
				return fmt.Errorf("MergeIntern admitted %d, err %v", n, err)
			}
			return nil
		},
	}
	for name, arm := range arms {
		t.Run(name, func(t *testing.T) {
			var path string
			sp := newTestSpill(t, SpillOptions{MemBudget: 1 << 20, BlockEvery: 16, AfterFlush: func(p string) { path = p }})
			for i := 0; i < 256; i++ {
				k := []byte(fmt.Sprintf("state-%05d", i))
				sp.InternEncoded(k, Hash(k))
			}
			if err := sp.Flush(); err != nil {
				t.Fatal(err)
			}
			img, err := os.ReadFile(path)
			if err != nil || len(img) < 41 || img[40] != '5' {
				t.Fatalf("run image of %d bytes, byte 40 not entry 5's suffix (%v)", len(img), err)
			}
			overwrite(t, path, 40, []byte{'0'})
			if err := arm(sp); err != nil {
				t.Fatal(err)
			}
			if err := sp.Err(); !errors.Is(err, ErrCorruptRun) || !strings.Contains(err.Error(), "keys not strictly increasing") {
				t.Fatalf("Err = %v, want ErrCorruptRun: keys not strictly increasing", err)
			}
			if sp.Len() != 256 {
				t.Fatalf("Len %d after the refusal, want 256", sp.Len())
			}
		})
	}
}

// TestSpillCloseRemovesOwnedDir: a Dir-less spill owns a temp dir and
// removes it wholesale; a caller-dir spill removes only its run files.
func TestSpillCloseRemovesOwnedDir(t *testing.T) {
	sp, err := NewSpill(SpillOptions{MemBudget: 128})
	if err != nil {
		t.Fatalf("NewSpill: %v", err)
	}
	for _, k := range shuffledKeys(100, 7) {
		InternState(sp, ioa.KeyState(k))
	}
	dir := sp.dir
	if err := sp.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("owned dir %s survived Close (err=%v)", dir, err)
	}

	userDir := t.TempDir()
	sp2, err := NewSpill(SpillOptions{Dir: userDir, MemBudget: 128})
	if err != nil {
		t.Fatalf("NewSpill: %v", err)
	}
	for _, k := range shuffledKeys(100, 8) {
		InternState(sp2, ioa.KeyState(k))
	}
	if err := sp2.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := sp2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	ents, err := os.ReadDir(userDir)
	if err != nil {
		t.Fatalf("caller dir %s removed by Close", userDir)
	}
	if len(ents) != 0 {
		t.Fatalf("run files survived Close: %v", ents)
	}
}

func TestFrontierRoundTrip(t *testing.T) {
	disk, err := NewDiskFrontier(t.TempDir())
	if err != nil {
		t.Fatalf("NewDiskFrontier: %v", err)
	}
	defer disk.Close()
	for _, fr := range []Frontier{NewMemFrontier(), disk} {
		var want [][]byte
		var bytesTotal int64
		for i := 0; i < 500; i++ {
			enc := []byte(fmt.Sprintf("enc-%04d-%s", i, string(make([]byte, i%13))))
			want = append(want, append([]byte(nil), enc...))
			bytesTotal += int64(len(enc))
			if err := fr.Push(enc); err != nil {
				t.Fatalf("%T: Push: %v", fr, err)
			}
		}
		if fr.Len() != len(want) || fr.Bytes() != bytesTotal {
			t.Fatalf("%T: Len/Bytes = %d/%d, want %d/%d", fr, fr.Len(), fr.Bytes(), len(want), bytesTotal)
		}
		for pass := 0; pass < 2; pass++ { // Drain is repeatable
			i := 0
			if err := fr.Drain(func(enc []byte) error {
				if !bytes.Equal(enc, want[i]) {
					return fmt.Errorf("record %d = %q, want %q", i, enc, want[i])
				}
				i++
				return nil
			}); err != nil {
				t.Fatalf("%T: Drain pass %d: %v", fr, pass, err)
			}
			if i != len(want) {
				t.Fatalf("%T: drained %d of %d", fr, i, len(want))
			}
		}
		if err := fr.Reset(); err != nil {
			t.Fatalf("%T: Reset: %v", fr, err)
		}
		if fr.Len() != 0 || fr.Bytes() != 0 {
			t.Fatalf("%T: nonempty after Reset", fr)
		}
		// Reusable after Reset.
		if err := fr.Push([]byte("again")); err != nil {
			t.Fatalf("%T: Push after Reset: %v", fr, err)
		}
		n := 0
		if err := fr.Drain(func(enc []byte) error {
			if string(enc) != "again" {
				return fmt.Errorf("got %q", enc)
			}
			n++
			return nil
		}); err != nil || n != 1 {
			t.Fatalf("%T: Drain after Reset: n=%d err=%v", fr, n, err)
		}
	}
}

// TestStoreSeenSetStats: the arena store reports zero spill volume
// through the shared Stats shape.
func TestStoreSeenSetStats(t *testing.T) {
	var seen SeenSet = New(Options{})
	InternState(seen, ioa.KeyState("a"))
	s := seen.Stats()
	if s.SpilledStates != 0 || s.SpilledBytes != 0 || s.SpillRuns != 0 {
		t.Fatalf("arena store reports spill volume: %+v", s)
	}
	if seen.Err() != nil {
		t.Fatalf("Err = %v", seen.Err())
	}
	if err := seen.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
