package faults

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/obs"
)

// RestartMode selects what a crashed process remembers when it
// restarts.
type RestartMode int

const (
	// Reset restarts from a start state of the wrapped automaton:
	// volatile state is lost.
	Reset RestartMode = iota
	// Resume restarts with the pre-crash state intact (stable
	// storage).
	Resume
)

// String implements fmt.Stringer.
func (m RestartMode) String() string {
	if m == Resume {
		return "resume"
	}
	return "reset"
}

// CrashAction names the internal action that crashes the wrapped
// automaton.
func CrashAction(name string) ioa.Action { return ioa.Act("crash", name) }

// RestartAction names the internal action that restarts it.
func RestartAction(name string) ioa.Action { return ioa.Act("restart", name) }

// CrashState is the state of a CrashRestart wrapper: the inner state
// plus a down flag. While down, the inner automaton takes no steps —
// its locally-controlled actions are disabled and its inputs are
// absorbed (lost), preserving input-enabledness.
type CrashState struct {
	down  bool
	inner ioa.State
	key   string
}

var _ ioa.State = (*CrashState)(nil)

func newCrashState(down bool, inner ioa.State) *CrashState {
	mode := "up"
	if down {
		mode = "down"
	}
	return &CrashState{down: down, inner: inner, key: mode + " " + inner.Key()}
}

// Key implements ioa.State.
func (s *CrashState) Key() string { return s.key }

// Down reports whether the process is crashed.
func (s *CrashState) Down() bool { return s.down }

// Inner returns the wrapped automaton's state.
func (s *CrashState) Inner() ioa.State { return s.inner }

// crashed is the CrashRestart wrapper automaton.
type crashed struct {
	inner          ioa.Automaton
	name           string
	mode           RestartMode
	sig            ioa.Signature
	parts          []ioa.Class
	crash, restart ioa.Action
	obs            *obs.Obs
}

// SetObs attaches (or detaches, with nil) fault metrics: crash and
// restart transitions are counted as they are computed, with the same
// computed-once-under-memo caveat as Schedule.Obs. ioa.SetObsDeep
// discovers this method through its extension point, so instrumenting
// a whole system also reaches crash wrappers and their inner automata.
func (c *crashed) SetObs(o *obs.Obs) {
	c.obs = o
	ioa.SetObsDeep(c.inner, o)
}

var _ ioa.Automaton = (*crashed)(nil)

// CrashRestart wraps inner with crash/restart faults under the given
// fault name (used in the action names crash(name)/restart(name) and
// the fairness class fault(name)). While crashed, the wrapped
// automaton is frozen: inputs arriving from the environment are
// lost, and no locally-controlled action is enabled. Restart either
// resets to a start state or resumes the pre-crash state, per mode.
//
// The fault actions form their own fairness class, so fair
// scheduling never forces a crash; policies and tests choose when
// the fault fires.
func CrashRestart(inner ioa.Automaton, name string, mode RestartMode) (ioa.Automaton, error) {
	crash, restart := CrashAction(name), RestartAction(name)
	if inner.Sig().HasAction(crash) || inner.Sig().HasAction(restart) {
		return nil, fmt.Errorf("faults: %s already uses action %s or %s", inner.Name(), crash, restart)
	}
	sig, err := ioa.NewSignature(
		inner.Sig().Inputs().Sorted(),
		inner.Sig().Outputs().Sorted(),
		append(inner.Sig().Internals().Sorted(), crash, restart),
	)
	if err != nil {
		return nil, err
	}
	parts := append(append([]ioa.Class(nil), inner.Parts()...), ioa.Class{
		Name:    "fault(" + name + ")",
		Actions: ioa.NewSet(crash, restart),
	})
	return &crashed{
		inner: inner, name: name, mode: mode,
		sig: sig, parts: parts, crash: crash, restart: restart,
	}, nil
}

// Name implements ioa.Automaton.
func (c *crashed) Name() string { return c.inner.Name() + "+crash(" + c.name + ")" }

// Sig implements ioa.Automaton.
func (c *crashed) Sig() ioa.Signature { return c.sig }

// Start implements ioa.Automaton.
func (c *crashed) Start() []ioa.State {
	inner := c.inner.Start()
	out := make([]ioa.State, len(inner))
	for i, s := range inner {
		out[i] = newCrashState(false, s)
	}
	return out
}

// Next implements ioa.Automaton. The inner automaton steps on the heap
// whatever sc is: Keep could not copy a borrowed tuple hidden inside a
// CrashState. The hot non-fault case — the process is up and the action
// belongs to the inner automaton — wraps each inner successor as it is
// yielded; fault metrics count once per transition computed.
func (c *crashed) Next(_ *ioa.Scratch, st ioa.State, a ioa.Action, yield func(ioa.State) bool) bool {
	s, ok := st.(*CrashState)
	if !ok {
		return true
	}
	switch a {
	case c.crash:
		if s.down {
			return true
		}
		if o := c.obs; o != nil {
			o.Faults.Crash.Add(1)
			o.Tracer.Instant(0, "faults", "crash", map[string]any{"process": c.name})
		}
		return yield(newCrashState(true, s.inner))
	case c.restart:
		if !s.down {
			return true
		}
		if o := c.obs; o != nil {
			o.Faults.Restart.Add(1)
			o.Tracer.Instant(0, "faults", "restart", map[string]any{"process": c.name})
		}
		if c.mode == Resume {
			return yield(newCrashState(false, s.inner))
		}
		for _, ss := range c.inner.Start() {
			if !yield(newCrashState(false, ss)) {
				return false
			}
		}
		return true
	}
	if s.down {
		if c.sig.IsInput(a) {
			return yield(s) // input absorbed by the crashed process
		}
		return true
	}
	return c.inner.Next(nil, s.inner, a, func(nxt ioa.State) bool {
		return yield(newCrashState(false, nxt))
	})
}

// Enabled implements ioa.Automaton.
func (c *crashed) Enabled(st ioa.State) []ioa.Action {
	s, ok := st.(*CrashState)
	if !ok {
		return nil
	}
	if s.down {
		return []ioa.Action{c.restart}
	}
	return append(c.inner.Enabled(s.inner), c.crash)
}

// Parts implements ioa.Automaton.
func (c *crashed) Parts() []ioa.Class { return c.parts }
