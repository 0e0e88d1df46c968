package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// gridKeys returns the base^digits digit vectors, one byte a digit, in
// a fixed shuffled order.
func gridKeys(base, digits int) [][]byte {
	n := 1
	for i := 0; i < digits; i++ {
		n *= base
	}
	keys := make([][]byte, n)
	for i := range keys {
		k := make([]byte, digits)
		for d, v := digits-1, i; d >= 0; d, v = d-1, v/base {
			k[d] = byte(v % base)
		}
		keys[i] = k
	}
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// BenchmarkSpillMerge measures the read side of the Spill on the 7^5
// grid's 16 807 five-byte keys interned under a 4 KiB budget, and what
// compaction leaves of them:
//
//   - every8, every64 and every512 resolve every 8th, 64th and 512th key
//     — all members, so nothing is admitted and the set does not change
//     — through MergeIntern: the one merge from candidates dense enough
//     to decode every block to so sparse that each is a filter test per
//     run and one block read. Per candidate they report the time, the
//     entries decoded and the blocks read one at a time.
//   - miss asks the runs, through searchRun, for keys of a base-8 digit
//     no run holds: a filter test per run.
//   - compact builds the set from empty: ns/candidate is an intern with
//     its share of flushing and compacting, entries_decoded/candidate
//     how often compaction rewrote each entry, runs what is left live.
func BenchmarkSpillMerge(b *testing.B) {
	keys := gridKeys(7, 5)
	build := func(b *testing.B) *Spill {
		sp, err := NewSpill(SpillOptions{Dir: b.TempDir(), MemBudget: 4 << 10})
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range keys {
			sp.InternEncoded(k, Hash(k))
		}
		if err := sp.Flush(); err != nil {
			b.Fatal(err)
		}
		return sp
	}
	report := func(b *testing.B, sp *Spill, before Stats, cands int) {
		after := sp.Stats()
		n := float64(b.N * cands)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/candidate")
		b.ReportMetric(float64(after.EntriesDecoded-before.EntriesDecoded)/n, "entries_decoded/candidate")
		b.ReportMetric(float64(after.BlocksRead-before.BlocksRead)/n, "blocks_read/candidate")
		b.ReportMetric(float64(after.SpillRuns), "runs")
	}
	for _, every := range []int{8, 64, 512} {
		// Added in key order, so that Order is cheap.
		var members Batch
		sample := make([][]byte, 0, len(keys)/every+1)
		for i := 0; i < len(keys); i += every {
			sample = append(sample, keys[i])
		}
		slices.SortFunc(sample, bytes.Compare)
		for _, k := range sample {
			members.Add(k, Hash(k))
		}
		b.Run(fmt.Sprintf("every%d", every), func(b *testing.B) {
			sp := build(b)
			defer sp.Close()
			before := sp.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n, err := sp.MergeIntern(&members, nil); n != 0 || err != nil {
					b.Fatalf("MergeIntern of members admitted %d: %v", n, err)
				}
			}
			b.StopTimer()
			report(b, sp, before, members.Len())
		})
	}
	b.Run("miss", func(b *testing.B) {
		sp := build(b)
		defer sp.Close()
		before := sp.Stats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < len(keys); j += 8 {
				absent := [5]byte(keys[j])
				absent[j%5] = 7
				if _, ok, err := sp.searchRuns(absent[:], &sp.lookup); ok || err != nil {
					b.Fatalf("absent key found (%v) or failed: %v", ok, err)
				}
			}
		}
		b.StopTimer()
		report(b, sp, before, (len(keys)+7)/8)
	})
	b.Run("compact", func(b *testing.B) {
		var sp *Spill
		for i := 0; i < b.N; i++ {
			if sp != nil {
				sp.Close()
			}
			sp = build(b)
		}
		b.StopTimer()
		defer sp.Close()
		if err := sp.Err(); err != nil {
			b.Fatal(err)
		}
		// One build's counters, over b.N builds' time.
		after := sp.Stats()
		n := float64(len(keys))
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(n*float64(b.N)), "ns/candidate")
		b.ReportMetric(float64(after.EntriesDecoded)/n, "entries_decoded/candidate")
		b.ReportMetric(float64(after.SpillRuns), "runs")
		b.ReportMetric(float64(after.Compactions), "compactions")
	})
}
