package bench

import (
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/ioa"
)

// TestChaosSweep runs a small sweep over the Figure 3.2 tree and
// checks the expected survive/degrade/break pattern:
//
//   - fault-free runs of both systems satisfy every property;
//   - the hardened A₃ʳ keeps every property under the lossy+
//     duplicating channel;
//   - the plain A₃ fails under that channel, in one of two ways
//     depending on which message the schedule kills: a dropped
//     request starves a user while every safety property — even the
//     h₂ correspondence — still holds (a pure liveness failure,
//     invisible to possibilities mappings), whereas a dropped grant
//     destroys the token, breaking the Lemma 35 single-root invariant
//     and the refinement itself. The seeds below exhibit both modes.
func TestChaosSweep(t *testing.T) {
	tr, err := graph.Figure32()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Chaos(ChaosConfig{
		Tree:   tr,
		Holder: 0,
		Profiles: []faults.Profile{
			{},
			{Drop: 0.3, Duplicate: 0.15},
		},
		Seeds: []int64{1, 2, 5},
		Steps: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("expected 12 rows, got %d", len(rows))
	}
	var sb strings.Builder
	printTable(&sb, chaosSweep.title, chaosSweep.cols, rows)
	t.Log("\n" + sb.String())

	allOK := func(r ChaosRow) bool {
		return !r.Starved && r.MutualExclusion && r.Lemma35 && r.Lemma36 &&
			r.Lemma41 && r.RefinesA2 && r.RefinesA1 && r.MaxPending >= 0
	}
	var livenessOnly, safetyBreak bool
	for _, r := range rows {
		served := true
		for _, g := range r.Grants {
			if g == 0 {
				served = false
			}
		}
		switch {
		case r.Profile.Zero():
			if !allOK(r) || !served {
				t.Errorf("fault-free hardened=%t seed=%d: expected every property to hold: %+v",
					r.Hardened, r.Seed, r)
			}
		case r.Hardened:
			if !allOK(r) || !served {
				t.Errorf("hardened under %s seed=%d: expected every property to hold: %+v",
					r.Profile, r.Seed, r)
			}
		default:
			if !r.Starved && r.RefinesA2 {
				t.Errorf("plain A3 under %s seed=%d: expected no-lockout or refinement to break: %+v",
					r.Profile, r.Seed, r)
			}
			if r.Starved && r.RefinesA2 && r.Lemma35 {
				livenessOnly = true
			}
			if !r.Lemma35 && !r.RefinesA2 {
				safetyBreak = true
			}
		}
	}
	if !livenessOnly {
		t.Error("no seed exhibited the liveness-only failure (dropped request: starvation with safety intact)")
	}
	if !safetyBreak {
		t.Error("no seed exhibited the safety failure (dropped grant: token destroyed, Lemma 35 and h2 broken)")
	}
}

// TestChaosPerFaultClass pins down the failure mode of each fault
// class in isolation:
//
//   - drop: the plain A₃ loses no-lockout (a lost request or grant is
//     never resent); A₃ʳ restores it.
//   - dup: the plain A₃ keeps serving users — the defensive
//     receivegrant precondition ignores stale grants arriving in FIFO
//     order — but the *proof* breaks: duplicate messages in transit
//     put phantom arrows in the h₂-image, violating Lemmas 35/36/41
//     and the refinement. A₃ʳ restores the full hierarchy.
//   - delay: the boundary of the hardening. The plain A₃ happens to
//     survive (its channels rarely hold two messages, so overtaking
//     has nothing to overtake), but A₃ʳ's alternating-bit links
//     assume FIFO channels: reordered packets wedge the handshakes,
//     the system halts with requests pending, and h₂ʳ fails — as the
//     Lemma 46 discussion and TestReorderBreaksHardenedArbiter
//     predict.
func TestChaosPerFaultClass(t *testing.T) {
	tr, err := graph.Figure32()
	if err != nil {
		t.Fatal(err)
	}
	run := func(p faults.Profile) (plain, hard ChaosRow) {
		t.Helper()
		rows, err := Chaos(ChaosConfig{
			Tree: tr, Holder: 0,
			Profiles: []faults.Profile{p},
			Seeds:    []int64{1},
			Steps:    4000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rows[0], rows[1]
	}

	plain, hard := run(faults.Profile{Drop: 0.3})
	if !plain.Starved {
		t.Errorf("drop: expected plain A3 to starve a user: %+v", plain)
	}
	if hard.Starved || !hard.RefinesA1 || !hard.MutualExclusion {
		t.Errorf("drop: expected A3r to restore no-lockout and refinement: %+v", hard)
	}

	plain, hard = run(faults.Profile{Duplicate: 0.15})
	if plain.RefinesA2 || plain.Lemma35 {
		t.Errorf("dup: expected phantom in-transit copies to break h2 and Lemma 35 for plain A3: %+v", plain)
	}
	if plain.Starved || !plain.MutualExclusion {
		t.Errorf("dup: plain A3's observable behavior should survive duplication alone: %+v", plain)
	}
	if hard.Starved || !hard.RefinesA1 || !hard.MutualExclusion {
		t.Errorf("dup: expected A3r to restore the refinement: %+v", hard)
	}

	plain, hard = run(faults.Profile{Delay: 3})
	if plain.Starved || !plain.RefinesA1 {
		t.Errorf("delay: plain A3 should survive bounded overtaking on its sparse channels: %+v", plain)
	}
	if hard.RefinesA2 {
		t.Errorf("delay: expected the FIFO assumption of the alternating-bit links to break h2r: %+v", hard)
	}
	if !hard.Starved {
		t.Errorf("delay: expected the wedged A3r to leave requests unanswered: %+v", hard)
	}
}

// TestDefaultChaosProfilesGolden pins the default sweep list: profile
// order and rendering are part of the bench artifact format
// (BENCH_*.json readers and CI log diffs key on them).
func TestDefaultChaosProfilesGolden(t *testing.T) {
	want := []string{
		"none",
		"drop=0.1",
		"drop=0.3",
		"dup=0.15",
		"drop=0.3,dup=0.15",
		"crash=0.1",
	}
	got := DefaultChaosProfiles()
	if len(got) != len(want) {
		t.Fatalf("%d default profiles, want %d", len(got), len(want))
	}
	for i, p := range got {
		if p.String() != want[i] {
			t.Errorf("profile %d renders %q, want %q", i, p, want[i])
		}
	}
}

// TestChaosRecoveryCriterion runs a small sweep with the
// recovers-within-k acceptance window: fault-free cells recover by
// definition (no outage, bounded gaps), and the verdict fields are
// consistent with the measurements.
func TestChaosRecoveryCriterion(t *testing.T) {
	tr, err := graph.Figure32()
	if err != nil {
		t.Fatal(err)
	}
	const k = 60
	rows, err := Chaos(ChaosConfig{
		Tree:          tr,
		Holder:        0,
		Profiles:      []faults.Profile{{}, {Crash: 0.1}},
		Seeds:         []int64{1},
		Steps:         2000,
		RecoverWithin: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.RecoverWithin != k {
			t.Fatalf("window not echoed: %d", r.RecoverWithin)
		}
		want := r.MaxOutage <= k && r.MaxServiceGap <= k
		if r.Recovered != want {
			t.Fatalf("%s seed %d: recovered=%t but outage=%d gap=%d window=%d",
				r.Profile, r.Seed, r.Recovered, r.MaxOutage, r.MaxServiceGap, k)
		}
		if r.Profile.Zero() {
			if r.MaxOutage != 0 {
				t.Fatalf("fault-free cell has outage %d", r.MaxOutage)
			}
			if !r.Recovered {
				t.Fatalf("fault-free cell failed recovery: gap=%d", r.MaxServiceGap)
			}
		}
	}
}

func TestLongestFalseRun(t *testing.T) {
	cases := []struct {
		in   []bool
		want int
	}{
		{nil, 0},
		{[]bool{true, true}, 0},
		{[]bool{false}, 1},
		{[]bool{true, false, false, true, false}, 2},
		{[]bool{false, false, true, false, false, false}, 3},
	}
	for _, c := range cases {
		if got := longestFalseRun(c.in); got != c.want {
			t.Errorf("longestFalseRun(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestChaosServiceGap(t *testing.T) {
	names := []string{"u", "v"}
	req := func(n string) ioa.Action { return ioa.Act("request", n) }
	grant := func(n string) ioa.Action { return ioa.Act("grant", n) }
	other := ioa.Act("token", "0", "1")
	cases := []struct {
		acts []ioa.Action
		want int
	}{
		{nil, 0},
		// No pending request: internal churn is not a gap.
		{[]ioa.Action{other, other, other}, 0},
		// Request served after two steps of churn.
		{[]ioa.Action{req("u"), other, other, grant("u")}, 2},
		// A grant to anyone resets the gap even while u stays pending.
		{[]ioa.Action{req("u"), other, req("v"), grant("v"), other, other, grant("u")}, 2},
		// Unserved tail counts in full.
		{[]ioa.Action{req("u"), other, other, other}, 3},
	}
	for i, c := range cases {
		if got := chaosServiceGap(names, c.acts); got != c.want {
			t.Errorf("case %d: gap = %d, want %d", i, got, c.want)
		}
	}
}
