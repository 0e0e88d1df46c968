package induct

import "repro/internal/ioa"

// The whole test binary runs with ioa's scratch poisoning on: every
// ioa.Walk.Visit overwrites what the Visit before it lent, so a loop
// that retains a borrowed successor without ioa.Keep feeds this
// package's batteries garbage (explore/borrow_test.go has the contract
// and the must-fail arm).
func init() { ioa.SetScratchPoison(true) }
