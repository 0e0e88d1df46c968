package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/induct"
	"repro/internal/ioa"
	"repro/internal/ledger"
	"repro/internal/sim"
	"repro/internal/stabilize"
)

// A mode is one row of the mode table: an entry point of the CLI, the
// flag that selects it, and which cross-cutting flags it takes.
type mode struct {
	// name is the ledger's mode string; flag the flag that selects the
	// mode ("" for the default) and set whether cfg carries it.
	name string
	flag string
	set  func(*config) bool
	// sharded modes shard a -reach: the flag may accompany theirs, and
	// where needsReach is set it must.
	sharded, needsReach bool
	// supports reports whether a system has the hook the mode runs
	// (nil: every system does).
	supports func(bench.System) bool
	// faults and symmetry are "" when the mode takes the flag — the
	// system permitting: -faults needs injectable channels and
	// -symmetry the canonicalizer canon picks — and otherwise say why
	// it does not apply. spill does the same for -spill-dir, which only
	// the modes that open a disk-backed seen set take.
	faults, symmetry, spill string
	canon                   func(bench.System) bench.CanonFunc
	run                     func(*invocation) error
}

func hasFaults(s bench.System) bool    { return s.Faulty }
func hasInduct(s bench.System) bool    { return s.Induct != nil }
func hasStabilize(s bench.System) bool { return s.Stabilize != nil }

func exploreCanon(s bench.System) bench.CanonFunc { return s.Canon }
func stabilizeCanon(s bench.System) bench.CanonFunc {
	if s.Stabilize == nil {
		return nil
	}
	return s.Stabilize.Canon
}

const (
	concrete = "it follows the concrete transition graph; reductions apply to -reach"
	walksDom = "induction walks the candidate domain, not the transition graph"
)

// modes is the mode table, in precedence order: the first row whose
// flag is set runs, and the last row is the default.
var modes = []mode{
	{name: "dist-worker", flag: "-dist-join", set: func(c *config) bool { return c.distJoin != "" },
		sharded: true, canon: exploreCanon, run: workerRun},
	{name: "dist-coordinate", flag: "-dist-listen", set: func(c *config) bool { return c.distListen != "" },
		sharded: true, needsReach: true, canon: exploreCanon, run: coordRun},
	{name: "stabilize", flag: "-stabilize", set: func(c *config) bool { return c.stabilize },
		supports: hasStabilize, canon: stabilizeCanon, run: stabilizeRun,
		faults: "it certifies state-corruption envelopes, not channel faults",
		spill:  "convergence bounds need the whole transition graph in RAM"},
	{name: "induct", flag: "-induct", set: func(c *config) bool { return c.induct },
		supports: hasInduct, faults: "it certifies the fault-free system", symmetry: walksDom, run: inductRun,
		spill: "induction streams its candidate domain and keeps no seen set"},
	{name: "dot", flag: "-dot", set: func(c *config) bool { return c.dotOut },
		symmetry: concrete, spill: "it draws at most 4096 states, from RAM", run: dotRun},
	{name: "reach", flag: "-reach", set: func(c *config) bool { return c.reach },
		canon: exploreCanon, run: reachRun},
	{name: "simulate", set: func(*config) bool { return true },
		symmetry: concrete, spill: "a simulation keeps no seen set", run: simulateRun},
}

// selectMode returns the first row whose flag is set.
func selectMode(cfg *config) *mode {
	i := 0
	for !modes[i].set(cfg) {
		i++
	}
	return &modes[i]
}

// admit holds an invocation against the mode's row and the system's
// catalogue entry, before anything is built or printed: one mode flag
// (beside -reach where the row says so), a system that has the mode's
// hook, and only cross-cutting flags that both the mode and the system
// take. A missing hook's rejection lists the systems that do have it.
func (m *mode) admit(cfg *config, sys bench.System, prof faults.Profile) error {
	for i := range modes {
		o := &modes[i]
		if o != m && o.flag != "" && o.set(cfg) && !(m.sharded && o.flag == "-reach") {
			return fmt.Errorf("%s and %s select different modes; give one", m.flag, o.flag)
		}
	}
	if m.needsReach && !cfg.reach {
		return fmt.Errorf("%s needs -reach: it shards a reachability exploration", m.flag)
	}
	for _, c := range []struct {
		flag    string
		given   bool
		refusal string
		has     func(bench.System) bool
	}{
		{m.flag, true, "", m.supports},
		{"-faults", !prof.Zero(), m.faults, hasFaults},
		{"-symmetry", cfg.symmetry, m.symmetry, func(s bench.System) bool { return m.canon != nil && m.canon(s) != nil }},
		{"-spill-dir", cfg.explore.Spill != nil, m.spill, nil},
	} {
		switch {
		case !c.given:
		case c.refusal != "":
			return fmt.Errorf("%s does not apply in %s mode: %s", c.flag, m.name, c.refusal)
		case c.has != nil && !c.has(sys):
			return fmt.Errorf("%s does not apply to system %q in %s mode (it applies to %v)",
				c.flag, sys.Name, m.name, bench.SystemNames(c.has))
		}
	}
	return nil
}

// stabilizeRun certifies self-stabilization of the system's catalogue
// case — closure of the legitimate set and convergence from the
// corruption envelope — and prints the certificate. A non-stabilizing
// verdict is an error, so the process exits non-zero.
func stabilizeRun(inv *invocation) error {
	opts := stabilize.Options{Workers: inv.cfg.explore.Workers, Limit: inv.cfg.explore.Limit, Obs: inv.o, Canon: inv.canon}
	auto, legit, env, err := inv.sys.Stabilize.Case(inv.cfg.nUsers, inv.engine())
	if err != nil {
		return err
	}
	ioa.SetObsDeep(auto, inv.o)
	cert, err := stabilize.Certify(context.Background(), auto, legit, env, opts)
	if err != nil {
		return err
	}
	inv.rec.Domain = cert.Envelope
	inv.rec.States = int64(cert.States)
	fmt.Fprintln(inv.out, cert)
	if !cert.Stabilizing() {
		return fmt.Errorf("%s is not self-stabilizing under envelope %q", cert.Automaton, cert.Envelope)
	}
	return nil
}

// inductRun certifies the system's safety invariant by one-step
// induction over its candidate domain and prints the certificate. A
// counterexample to induction is an error, so the process exits
// non-zero — the negative direction CI asserts with a deliberately
// weakened conjunction lives in the bench battery.
func inductRun(inv *invocation) error {
	sys, err := inv.sys.Induct(inv.par, inv.engine())
	if err != nil {
		return err
	}
	rec := inv.rec
	rec.Users = sys.Users
	ioa.SetObsDeep(sys.Auto, inv.o)
	cert, err := induct.Check(context.Background(), sys.Auto, sys.Dom, sys.Inv, induct.Options{Obs: inv.o})
	if err != nil {
		return err
	}
	rec.Domain = cert.Domain
	rec.States = cert.DomainStates
	rec.Obligations = make([]ledger.Obligation, len(cert.Obligations))
	for i, ob := range cert.Obligations {
		rec.Obligations[i] = ledger.Obligation{Conjunct: ob.Conjunct, Discharged: ob.Discharged}
	}
	fmt.Fprintln(inv.out, cert)
	if cert.CTI != nil {
		fmt.Fprintln(inv.out, cert.CTI)
		rec.Detail = cert.CTI.String()
		return fmt.Errorf("%s is not inductive for %s over domain %q", cert.Invariant, cert.Automaton, cert.Domain)
	}
	return nil
}

// dotRun exports the reachable state graph in Graphviz DOT format.
func dotRun(inv *invocation) error {
	auto, err := inv.build()
	if err != nil {
		return err
	}
	eng := explore.New(explore.Options{Workers: 1, Limit: 4096, Obs: inv.o})
	return eng.WriteDOT(context.Background(), inv.out, auto)
}

// reachRun explores the reachable state space in this process. With
// -spill-dir a canonically decodable system runs the external census —
// frontier and seen set both on disk, O(spill budget) resident memory
// regardless of state count.
func reachRun(inv *invocation) error {
	auto, err := inv.build()
	if err != nil {
		return err
	}
	opts := inv.cfg.explore
	opts.Obs, opts.Canon = inv.o, inv.canon
	rep := reachReport{name: auto.Name(), depth: -1, budget: opts.Limit}
	dec, decodable := auto.(interface {
		Decode([]byte) (ioa.State, error)
	})
	if opts.Spill != nil && decodable {
		opts.Decode = dec.Decode
		var sum explore.Summary
		sum, err = explore.New(opts).Census(context.Background(), auto, nil, nil)
		rep.states, rep.depth, rep.quiescent = sum.States, sum.Depth, sum.Deadlocks
	} else {
		var states []ioa.State
		states, err = explore.New(opts).Reach(context.Background(), auto)
		rep.states, rep.partial = int64(len(states)), true
		if err == nil { // a truncated report stops at the count
			for _, s := range states {
				if len(auto.Enabled(s)) == 0 {
					if rep.quiescent == 0 {
						rep.first = s.Key()
					}
					rep.quiescent++
				}
			}
		}
	}
	return rep.print(inv, err)
}

// simulateRun runs one schedule of the system under the chosen policy
// and reports it.
func simulateRun(inv *invocation) error {
	cfg := inv.cfg
	auto, err := inv.build()
	if err != nil {
		return err
	}
	var p sim.Policy
	switch cfg.policy {
	case "rr":
		p = &sim.RoundRobin{}
	case "random":
		p = sim.NewRandom(cfg.seed)
	default:
		return fmt.Errorf("unknown policy %q", cfg.policy)
	}
	x, err := sim.RunObs(auto, p, cfg.steps, nil, inv.o)
	if err != nil {
		return err
	}
	inv.rec.States = int64(x.Len())
	if cfg.jsonOut {
		return writeJSON(inv.out, x)
	}
	report(inv.out, auto, x, cfg.trace)
	return nil
}

// workerRun joins a coordinator at -dist-join as one worker process of
// a sharded exploration. The worker builds the system locally — the
// cluster protocol ships canonical encodings, never concrete states —
// and owns the shard of the interned key space the coordinator's rank
// assignment gives it. A -spill-dir is made rank-unique with a private
// subdirectory, so several workers on one host never collide.
func workerRun(inv *invocation) error {
	cfg := inv.cfg
	spill := cfg.explore.Spill
	if spill != nil {
		if err := os.MkdirAll(spill.Dir, 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(spill.Dir, "shard-")
		if err != nil {
			return err
		}
		sp := *spill
		sp.Dir = dir
		spill = &sp
	}
	// cluster.Work retries refused dials itself (hand-started workers
	// race the coordinator's bind), so the exploration runs exactly once.
	return cluster.Work(context.Background(), cluster.Config{
		Addr:         cfg.distJoin,
		Build:        func() (ioa.Automaton, error) { return inv.sys.Build(inv.par) },
		Limit:        int64(cfg.explore.Limit),
		Spill:        spill,
		Canon:        inv.canon,
		CorruptShard: cfg.distCorrupt,
	})
}

// joinAddr renders a bound listener address as a dialable -dist-join
// target: an unspecified host (":0", "0.0.0.0", "::") becomes
// loopback, since that is where locally spawned workers must dial.
func joinAddr(a net.Addr) string {
	host, port, err := net.SplitHostPort(a.String())
	if err != nil {
		return a.String()
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

// coordRun coordinates a sharded multi-process exploration: it listens
// on -dist-listen, waits for -dist-workers worker processes, drives the
// level barriers, and reports the cluster-wide census. With -dist-spawn
// the workers are forked from this binary with the system flags passed
// through; otherwise start them by hand with -dist-join.
func coordRun(inv *invocation) error {
	cfg := inv.cfg
	// Bind before spawning so workers can join an ephemeral port
	// (-dist-listen :0): the join address comes from the bound
	// listener, not the flag.
	ln, err := net.Listen("tcp", cfg.distListen)
	if err != nil {
		return fmt.Errorf("dist: listen %s: %w", cfg.distListen, err)
	}
	join := joinAddr(ln.Addr())
	fmt.Fprintf(inv.out, "coordinating on %s (%d workers)\n", join, cfg.distWorkers)
	var spawned []*exec.Cmd
	if cfg.distSpawn {
		args := []string{
			"-system", cfg.system,
			"-users", fmt.Sprint(cfg.nUsers),
			"-grid-base", fmt.Sprint(cfg.gridM), "-grid-digits", fmt.Sprint(cfg.gridK),
			"-dist-join", join,
		}
		if cfg.explore.Limit != explore.DefaultLimit {
			args = append(args, "-limit", fmt.Sprint(cfg.explore.Limit))
		}
		if cfg.explore.Spill != nil {
			args = append(args, "-spill-dir", cfg.explore.Spill.Dir, "-spill-mem-mb", fmt.Sprint(cfg.explore.Spill.MemBudget>>20))
		}
		if cfg.symmetry {
			args = append(args, "-symmetry")
		}
		if cfg.faults != "" && cfg.faults != "none" {
			args = append(args, "-faults", cfg.faults, "-fault-seed", fmt.Sprint(cfg.faultSd))
		}
		for i := 0; i < cfg.distWorkers; i++ {
			cmd := exec.Command(os.Args[0], args...)
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				return fmt.Errorf("spawn worker %d: %w", i, err)
			}
			spawned = append(spawned, cmd)
		}
	}
	res, err := cluster.Coordinate(context.Background(), cluster.Config{
		Listener: ln,
		Procs:    cfg.distWorkers,
		Limit:    int64(cfg.explore.Limit),
		Obs:      inv.o,
	})
	// A budget abort stops the workers with the coordinator's reason;
	// their non-zero exits are then the expected echo of the truncation.
	truncated := errors.Is(err, explore.ErrLimit)
	for i, cmd := range spawned {
		if werr := cmd.Wait(); werr != nil && !truncated {
			err = errors.Join(err, fmt.Errorf("worker %d: %w", i, werr))
		}
	}
	rep := reachReport{name: cfg.system, states: res.States, depth: res.Depth, budget: cfg.explore.Limit,
		perRank: res.PerRank, verdict: res.Verdict(), quiescent: -1}
	return rep.print(inv, err)
}
