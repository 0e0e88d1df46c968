package store

// ShrinkArenaLimit lowers the shard-arena bound for one test and
// returns the function that restores it.
func ShrinkArenaLimit(n uint64) (restore func()) {
	old := arenaLimit
	arenaLimit = n
	return func() { arenaLimit = old }
}
