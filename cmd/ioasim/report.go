package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/explore"
	"repro/internal/ioa"
)

// A reachReport is what a reachability run found, whichever engine ran
// it: the in-RAM explorer, the external census or the cluster
// coordinator.
type reachReport struct {
	name string
	// states is the reachable-state count; when the run was truncated
	// it is worth printing only if partial (the states were in hand).
	states  int64
	partial bool
	depth   int64 // last BFS level; -1 when the engine does not track it
	// perRank is the shard balance of a sharded run, one entry per
	// process, and verdict its invariant verdict.
	perRank []int64
	verdict string
	// quiescent counts the states with nothing locally controlled
	// enabled (-1: not counted); first is the first one's key when the
	// states were in hand.
	quiescent int64
	first     string
	budget    int // the -limit a truncated run stopped at
}

// print writes the report of a run that ended in err, journals the
// count, and returns what is left of err: a run truncated at the state
// budget is reported as such and succeeds.
func (r reachReport) print(inv *invocation, err error) error {
	if err != nil && !errors.Is(err, explore.ErrLimit) {
		return err
	}
	out := inv.out
	if err == nil || r.partial {
		inv.rec.States = r.states
	}
	if err != nil {
		count, budget := "", fmt.Sprintf(" %d (pass a larger -limit)", r.budget)
		if r.partial {
			count, budget = fmt.Sprintf("%d reachable states (", r.states), "; pass a larger -limit)"
		}
		fmt.Fprintf(out, "%s: %struncated at state budget%s\n", r.name, count, budget)
		return nil
	}
	how := ""
	switch {
	case r.perRank != nil:
		inv.rec.Detail = r.verdict
		how = fmt.Sprintf(" across %d processes (depth %d, verdict %s)", len(r.perRank), r.depth, r.verdict)
	case r.depth >= 0:
		how = fmt.Sprintf(" (external census, depth %d)", r.depth)
	}
	fmt.Fprintf(out, "%s: %d reachable states%s\n", r.name, r.states, how)
	if r.perRank != nil {
		fmt.Fprint(out, "shard balance:")
		for _, n := range r.perRank {
			fmt.Fprintf(out, " %d", n)
		}
		fmt.Fprintln(out)
	}
	first := ""
	if r.first != "" {
		first = fmt.Sprintf("; first: %q", r.first)
	}
	if r.quiescent == 0 {
		fmt.Fprintln(out, "no quiescent states")
	} else if r.quiescent > 0 {
		fmt.Fprintf(out, "%d quiescent states (nothing locally controlled enabled)%s\n", r.quiescent, first)
	}
	return nil
}

// writeFile writes one observability artifact through a buffered
// writer. Flush and close always run, and their errors are combined
// with the emit error, so a partial write (full disk, closed pipe) is
// reported instead of leaving a silently truncated artifact.
func writeFile(path string, emit func(io.Writer) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = emit(bw)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// event is one step of a trace in the JSON export format.
type event struct {
	Step   int    `json:"step"`
	Action string `json:"action"`
	State  string `json:"state"`
}

// writeJSON emits the execution as a JSON array of events, preceded by
// the initial state, for consumption by external tooling.
func writeJSON(w io.Writer, x *ioa.Execution) error {
	events := make([]event, 0, x.Len()+1)
	events = append(events, event{Step: 0, Action: "", State: x.States[0].Key()})
	for i, act := range x.Acts {
		events = append(events, event{Step: i + 1, Action: string(act), State: x.States[i+1].Key()})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(events)
}

// report prints what a simulation did: fairness, action counts, and
// grants per user.
func report(out io.Writer, auto ioa.Automaton, x *ioa.Execution, trace bool) {
	fmt.Fprintf(out, "system %s: ran %d steps\n", auto.Name(), x.Len())
	if trace {
		for i, act := range x.Acts {
			fmt.Fprintf(out, "%4d  %s\n", i+1, act)
		}
	}
	if err := ioa.CheckFairWindow(x, 4*len(auto.Parts())); err != nil {
		fmt.Fprintf(out, "fairness: %v\n", err)
	} else {
		fmt.Fprintln(out, "fairness: every class served within the window")
	}
	counts := make(map[string]int)
	for _, act := range x.Acts {
		counts[act.Base()]++
	}
	fmt.Fprintln(out, "action counts:")
	for _, base := range []string{"request", "grant", "return"} {
		if counts[base] > 0 {
			fmt.Fprintf(out, "  %-8s %d\n", base, counts[base])
		}
	}
	perUser := make(map[string]int)
	var granted []string
	for _, act := range x.Acts {
		if act.Base() == "grant" && len(act.Params()) == 1 {
			u := act.Params()[0]
			if perUser[u] == 0 {
				granted = append(granted, u)
			}
			perUser[u]++
		}
	}
	if len(granted) > 0 {
		sort.Strings(granted)
		fmt.Fprintln(out, "grants per user:")
		for _, u := range granted {
			fmt.Fprintf(out, "  %-6s %d\n", u, perUser[u])
		}
	}
	if x.Len() > 0 && len(granted) == 0 && !trace {
		fmt.Fprintf(out, "last actions: %s\n", ioa.TraceString(x.Acts[max(0, len(x.Acts)-10):]))
	}
}
