package proof_test

import (
	"fmt"

	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/proof"
)

// ExamplePossMapping_VerifyOpts verifies a small refinement: a three-phase
// traffic light refines a two-phase go/stop abstraction by mapping
// both "amber" and "red" to abstract "stop".
func ExamplePossMapping_VerifyOpts() {
	sigC := ioa.MustSignature(nil, []ioa.Action{"tick"}, nil)
	s := func(k string) ioa.State { return ioa.KeyState(k) }
	concrete := ioa.MustTable("light3", sigC,
		[]ioa.State{s("green")},
		[]ioa.Step{
			{From: s("green"), Act: "tick", To: s("amber")},
			{From: s("amber"), Act: "tick", To: s("red")},
			{From: s("red"), Act: "tick", To: s("green")},
		},
		[]ioa.Class{{Name: "l", Actions: ioa.NewSet(ioa.Action("tick"))}})
	abstract := ioa.MustTable("light2", sigC,
		[]ioa.State{s("go")},
		[]ioa.Step{
			{From: s("go"), Act: "tick", To: s("stop")},
			{From: s("stop"), Act: "tick", To: s("stop")},
			{From: s("stop"), Act: "tick", To: s("go")},
		},
		[]ioa.Class{{Name: "l", Actions: ioa.NewSet(ioa.Action("tick"))}})

	h := &proof.PossMapping{
		A: concrete,
		B: abstract,
		Map: func(st ioa.State) []ioa.State {
			if st.Key() == "green" {
				return []ioa.State{s("go")}
			}
			return []ioa.State{s("stop")}
		},
	}
	fmt.Println("verified:", h.VerifyOpts(explore.Options{Limit: 100}) == nil)

	// Lift a concrete execution to the abstract level (Lemma 28).
	x := ioa.NewExecution(concrete, concrete.Start()[0])
	for i := 0; i < 3; i++ {
		if err := x.Extend("tick", 0); err != nil {
			fmt.Println("error:", err)
			return
		}
	}
	y, err := h.Correspond(x)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("abstract run:", y.String())
	// Output:
	// verified: true
	// abstract run: go -tick-> stop -tick-> stop -tick-> go
}

// ExamplePending shows leads-to obligation accounting on a finite
// execution.
func ExamplePending() {
	d := ioa.NewDef("door")
	d.Start(ioa.KeyState("closed"))
	d.Input("knock", func(ioa.State) ioa.State { return ioa.KeyState("knocked") })
	d.Output("open", "door",
		func(s ioa.State) bool { return s.Key() == "knocked" },
		func(ioa.State) ioa.State { return ioa.KeyState("closed") })
	door := d.MustBuild()

	answered := &proof.LeadsTo{
		Name: "knock↝open",
		S:    func(s ioa.State) bool { return s.Key() == "knocked" },
		T:    func(a ioa.Action) bool { return a == "open" },
	}
	x := ioa.NewExecution(door, door.Start()[0])
	_ = x.Extend("knock", 0)
	fmt.Println("pending after knock:", len(proof.Pending(x, []*proof.LeadsTo{answered})))
	_ = x.Extend("open", 0)
	fmt.Println("pending after open: ", len(proof.Pending(x, []*proof.LeadsTo{answered})))
	// Output:
	// pending after knock: 1
	// pending after open:  0
}
