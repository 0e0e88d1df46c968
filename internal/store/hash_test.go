package store_test

// The hash battery. store.Hash promises no particular function, only
// what its uses need — so that is what is pinned, and on the keys the
// engines really hash (canonical encodings of catalogue systems: long,
// ASCII, sharing most of their bytes), not on random ones: no
// collisions, an even spread in every bit range a caller reads, the
// length mixed in, every input bit reaching the output. None of this
// is what makes the store correct — bytes decide equality, and the
// forged-collision tests and fuzz targets hold that — it is what makes
// it fast and the cluster balanced.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/explore"
	"repro/internal/grid"
	"repro/internal/ioa"
	"repro/internal/mutex"
	"repro/internal/store"
)

// realKeys returns the encodings of three reach sets: the closed
// level-3 arbiter on five users (4 837 states), the 10³ grid and
// Lamport's bakery at three processes.
func realKeys(t *testing.T) map[string][][]byte {
	t.Helper()
	arb, err := bench.ExploreSystem(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	g, err := grid.New(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	l, err := mutex.NewLamport(3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sets := make(map[string][][]byte)
	for name, sys := range map[string]struct {
		a    ioa.Automaton
		want int
	}{"arbiter3": {arb, 4837}, "grid": {g, 1000}, "lamport": {l.Auto, 143}} {
		states, err := explore.New(explore.Options{}).Reach(context.Background(), sys.a)
		if err != nil || len(states) != sys.want {
			t.Fatalf("%s: reach = %d states, %v; want %d", name, len(states), err, sys.want)
		}
		for _, s := range states {
			sets[name] = append(sets[name], ioa.AppendState(nil, s))
		}
	}
	return sets
}

func TestHashRealKeysDoNotCollide(t *testing.T) {
	seen := make(map[uint64]string)
	for name, keys := range realKeys(t) {
		for _, k := range keys {
			h := store.Hash(k)
			if prev, dup := seen[h]; dup {
				t.Fatalf("%s: %q and %q both hash to %#x", name, prev, k, h)
			}
			seen[h] = string(k)
		}
	}
}

// TestHashSpreadsRealKeys: every bucketing a caller derives from the
// hash is within ±10 % of uniform on every key set — or within four
// standard deviations of it where the set is so small that a perfect
// hash would miss ±10 % (143 keys in 16 buckets). A bucketing that
// would leave a set under eight keys a bucket is skipped: down there the
// counts are Poisson and four deviations is no bound.
func TestHashSpreadsRealKeys(t *testing.T) {
	bucketings := []struct {
		name    string
		buckets int
		of      func(h uint64) uint64
	}{
		{"hash&15 (store shard)", 16, func(h uint64) uint64 { return h & 15 }},
		{"hash%2 (cluster owner)", 2, func(h uint64) uint64 { return h % 2 }},
		{"hash%3 (cluster owner)", 3, func(h uint64) uint64 { return h % 3 }},
		{"Index.home, 16 slots", 16, func(h uint64) uint64 { return store.HomeSlot(h, 4) }},
		{"Index.home, 256 slots", 256, func(h uint64) uint64 { return store.HomeSlot(h, 8) }},
	}
	for name, keys := range realKeys(t) {
		for _, b := range bucketings {
			if len(keys) < 8*b.buckets {
				continue
			}
			counts := make([]int, b.buckets)
			for _, k := range keys {
				counts[b.of(store.Hash(k))]++
			}
			mean := float64(len(keys)) / float64(b.buckets)
			tol := max(0.10, 4*math.Sqrt(float64(b.buckets-1)/float64(len(keys))))
			for i, c := range counts {
				if dev := math.Abs(float64(c)-mean) / mean; dev > tol {
					t.Errorf("%s, %s: bucket %d holds %d of %d keys, %.0f%% off the uniform %.1f (tolerance %.0f%%)",
						name, b.name, i, c, len(keys), 100*dev, mean, 100*tol)
				}
			}
		}
	}
}

// TestHashMixesLength: the empty key is legal, and a key never hashes
// like itself zero-padded — the word loop pads a short tail with zeros,
// so only the length keeps the two apart.
func TestHashMixesLength(t *testing.T) {
	if store.Hash(nil) != store.Hash([]byte{}) {
		t.Fatal("Hash(nil) != Hash of the empty slice")
	}
	seen := make(map[uint64]int)
	for n := 0; n <= 24; n++ {
		h := store.Hash(make([]byte, n))
		if m, dup := seen[h]; dup {
			t.Fatalf("%d and %d zero bytes hash alike", m, n)
		}
		seen[h] = n
	}
	for name, keys := range realKeys(t) {
		for _, k := range keys {
			if padded := append(k[:len(k):len(k)], 0); store.Hash(k) == store.Hash(padded) {
				t.Fatalf("%s: %q hashes like itself with a zero byte appended", name, k)
			}
		}
	}
}

// TestHashEveryBitCounts: flipping any one bit of an encoding of the
// benchmark's arbiter (seven users, 283 bytes a state) changes the
// hash, and no two flips change it to the same value.
func TestHashEveryBitCounts(t *testing.T) {
	arb, err := bench.ExploreSystem(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	key := ioa.AppendState(nil, arb.Start()[0])
	if len(key) < 200 {
		t.Fatalf("arbiter encoding is %d bytes, want the benchmark's ~283", len(key))
	}
	seen := map[uint64]string{store.Hash(key): "the key itself"}
	for bit := 0; bit < 8*len(key); bit++ {
		key[bit/8] ^= 1 << (bit % 8)
		h := store.Hash(key)
		key[bit/8] ^= 1 << (bit % 8)
		flip := fmt.Sprintf("bit %d of byte %d flipped", bit%8, bit/8)
		if prev, dup := seen[h]; dup {
			t.Fatalf("%s hashes like %s", flip, prev)
		}
		seen[h] = flip
	}
}
