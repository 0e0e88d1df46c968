package faults

import "repro/internal/ioa"

// The whole test binary runs with ioa's scratch poisoning on: every
// Scratch.Reset overwrites what it lent, so a borrowed successor read
// after its Reset reads ioa.PoisonKey (explore/borrow_test.go has the
// contract and the must-fail arm).
func init() { ioa.SetScratchPoison(true) }
