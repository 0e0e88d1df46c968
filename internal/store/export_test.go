package store

import "repro/internal/ioa"

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

// InternState interns s's Key bytes, ioa.AppendState's encoding, into
// ss: what a caller that encodes states by their Keys brings.
func InternState(ss SeenSet, s ioa.State) (ID, bool) {
	enc := ioa.AppendState(nil, s)
	return ss.InternEncoded(enc, Hash(enc))
}

// LookupState looks s's Key bytes up in ss.
func LookupState(ss SeenSet, s ioa.State) (ID, bool) {
	enc := ioa.AppendState(nil, s)
	return ss.Lookup(enc, Hash(enc))
}
