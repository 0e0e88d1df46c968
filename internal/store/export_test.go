package store

// ShrinkArenaLimit lowers the arena bound for one test and
// returns the function that restores it.
func ShrinkArenaLimit(n uint64) (restore func()) {
	old := arenaLimit
	arenaLimit = n
	return func() { arenaLimit = old }
}

// HomeSlot is Index.home in a table of 1<<logSlots slots.
func HomeSlot(hash uint64, logSlots uint) uint64 {
	return (&Index{shift: 64 - logSlots}).home(hash)
}
