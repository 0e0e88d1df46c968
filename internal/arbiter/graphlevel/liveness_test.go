package graphlevel

import (
	"context"
	"testing"
	"time"

	"repro/internal/arbiter/users"
	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/ioa"
	"repro/internal/proof"
)

// TestCorollary38Exact decides Corollary 38 on the reachable graph of
// closed A₂ (f₁(A₂) with users that request forever and, being fair,
// return what they hold): every fair execution satisfies C₂ and every
// GrRes₂(u), on TestCorollary38NoLockout's four trees. The conditions
// read A₂'s component state, and their actions are renamed by f₁.
func TestCorollary38Exact(t *testing.T) {
	builders := []struct {
		name  string
		build func() (*graph.Tree, error)
	}{
		{"figure32", graph.Figure32},
		{"line4", func() (*graph.Tree, error) { return graph.Line(4) }},
		{"star5", func() (*graph.Tree, error) { return graph.Star(5) }},
		{"binary6", func() (*graph.Tree, error) { return graph.BinaryTree(6) }},
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			tr, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			holder := tr.NodesOf(graph.Arbiter)[0]
			a2, err := New(tr, tr.Neighbors(holder)[0], holder)
			if err != nil {
				t.Fatal(err)
			}
			closed := closedA2(t, tr, a2, users.HeavyLoad(userNames(tr)))
			conds := C2(tr)
			for _, u := range tr.NodesOf(graph.User) {
				conds = append(conds, GrRes2(tr, u))
			}
			f1 := F1(tr)
			lifted := make([]*proof.LeadsTo, len(conds))
			for i, c := range conds {
				l := proof.OnComponent(0, c)
				l.T = func(act ioa.Action) bool { return c.T(f1.Invert(act)) }
				lifted[i] = l
			}
			start := time.Now()
			lassos, err := proof.CheckLeadsTo(context.Background(), closed, explore.Options{Limit: 1 << 21}, lifted...)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d conditions decided in %v", len(lifted), time.Since(start))
			for i, l := range lassos {
				if l != nil {
					t.Errorf("%s refuted: stem %s, cycle %s", lifted[i].Name,
						ioa.TraceString(l.Stem.Acts), ioa.TraceString(l.Cycle))
				}
			}
		})
	}
}
