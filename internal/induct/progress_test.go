package induct

import (
	"context"
	"testing"

	"repro/internal/ioa"
	"repro/internal/lattice"
	"repro/internal/obs"
)

// TestCheckProgressEmission: the streaming domain walk always emits a
// final Done snapshot carrying the domain total (small domains never
// reach the stride, so Done is the snapshot-count floor the ledger's
// first-of-phase rule turns into ≥1 journaled line per walk).
func TestCheckProgressEmission(t *testing.T) {
	var snaps []obs.Progress
	o := obs.New(nil)
	o.Progress = func(p obs.Progress) { snaps = append(snaps, p) }
	a := counter(t, func(v int) bool { return v < 5 })
	cert, err := Check(context.Background(), a, explicitRange(0, 9), lattice.Conj("Inv", leq(5)), Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("got %d snapshots over a 10-state domain, want exactly the final Done: %+v", len(snaps), snaps)
	}
	p := snaps[0]
	if p.Phase != "induct" || !p.Done {
		t.Fatalf("final snapshot %+v, want phase=induct done", p)
	}
	if p.States != cert.DomainStates || p.Total != 10 {
		t.Fatalf("final snapshot %+v, want states=%d total=10", p, cert.DomainStates)
	}
}

// TestCheckProgressUnderPruning: a pruned walk advances DomainStates
// by whole subtrees, stepping over the exact multiples of the stride a
// one-at-a-time walk would hit. Snapshots still fire — one whenever a
// stride boundary has been crossed since the last visited state — with
// States monotone, and the walk ends on Done with States == Total. A
// nil Obs takes the same walk to the same certificate and emits
// nothing.
func TestCheckProgressUnderPruning(t *testing.T) {
	a := counter(t, func(int) bool { return false })
	// 4 × 70 001 × 1 states; the lemma rejects leading digits 1 and 3,
	// so the count jumps 70 001 → 140 002 and 210 003 → 280 004, never
	// landing on a multiple of 65 536.
	dom := digitProduct(t, []int{4, 70001, 1})
	even := lattice.Lemma{Name: "evenLead", Reads: []int{0},
		Pred: func(s ioa.State) bool { return val(s)/70001%2 == 0 }}
	inv := lattice.Conj("Inv", even)

	var snaps []obs.Progress
	o := obs.New(nil)
	o.Progress = func(p obs.Progress) { snaps = append(snaps, p) }
	cert, err := Check(context.Background(), a, dom, inv, Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	const total = 4 * 70001
	if !cert.Inductive || cert.DomainStates != total || cert.Candidates != total/2 {
		t.Fatalf("certificate off: %s", cert)
	}
	// Boundaries 65 536 and 196 608 fall inside walked subtrees, 131 072
	// and 262 144 inside skipped ones (reported at the next survivor /
	// by Done).
	if len(snaps) != 4 {
		t.Fatalf("got %d snapshots, want 3 stride crossings + Done: %+v", len(snaps), snaps)
	}
	for i, p := range snaps {
		if p.Phase != "induct" || p.Total != total || p.Done != (i == len(snaps)-1) {
			t.Fatalf("snapshot %d = %+v", i, p)
		}
		if i > 0 && p.States < snaps[i-1].States {
			t.Fatalf("States went backwards: %+v", snaps)
		}
	}
	if last := snaps[len(snaps)-1]; last.States != total {
		t.Fatalf("final snapshot %+v, want States == Total == %d", last, total)
	}

	quiet, err := Check(context.Background(), a, dom, inv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if quiet.String() != cert.String() {
		t.Fatalf("nil Obs changed the certificate:\n%s\n%s", quiet, cert)
	}
}
