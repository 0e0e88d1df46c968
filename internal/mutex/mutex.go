// Package mutex implements Peterson's two-process mutual-exclusion
// algorithm over shared atomic registers, each register modeled as its
// own input-output automaton. The paper lists mutual-exclusion
// algorithms [Wel87] and hardware register algorithms [Blo87] among
// the model's early applications; this package reproduces that style
// of modeling: processes and registers are separate automata that
// communicate only through read/write request–response actions, the
// composition is analyzed with the same exploration and fairness
// machinery as the arbiter, and the mutual-exclusion invariant is
// checked over the full reachable state space.
//
// Interface (the standard tryᵢ/critᵢ/exitᵢ/remᵢ mutual-exclusion
// automaton signature):
//
//	input  try(i)   — user i wants the critical section
//	output crit(i)  — process i enters the critical section
//	input  exit(i)  — user i is done
//	output rem(i)   — process i returns to the remainder region
package mutex

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/ioa"
)

// Register and process identifiers. Peterson's algorithm uses three
// binary registers: flag0, flag1, and turn.
const (
	RegFlag0 = "flag0"
	RegFlag1 = "flag1"
	RegTurn  = "turn"
)

// Register port actions. Each process has its own port to each
// register, so actions carry both the register and the process.

// Write names the request "process i writes v to register r".
func Write(r string, i, v int) ioa.Action {
	return ioa.Act("write", r, itoa(i), itoa(v))
}

// Ack names the write completion for process i on register r.
func Ack(r string, i int) ioa.Action { return ioa.Act("ack", r, itoa(i)) }

// Read names the request "process i reads register r".
func Read(r string, i int) ioa.Action { return ioa.Act("read", r, itoa(i)) }

// Value names the read response "register r returns v to process i".
func Value(r string, i, v int) ioa.Action {
	return ioa.Act("value", r, itoa(i), itoa(v))
}

// User-facing actions.

// Try names the input try(i).
func Try(i int) ioa.Action { return ioa.Act("try", itoa(i)) }

// Crit names the output crit(i).
func Crit(i int) ioa.Action { return ioa.Act("crit", itoa(i)) }

// Exit names the input exit(i).
func Exit(i int) ioa.Action { return ioa.Act("exit", itoa(i)) }

// Rem names the output rem(i).
func Rem(i int) ioa.Action { return ioa.Act("rem", itoa(i)) }

func itoa(i int) string {
	return string(rune('0' + i))
}

// regState is the state of a binary register automaton: its value and
// the pending operation of each process port.
type regState struct {
	val     int
	pending [2]string // "", "r", "w0", "w1"
	key     string
}

func newRegState(val int, pending [2]string) *regState {
	s := &regState{val: val, pending: pending}
	s.key = fmt.Sprintf("v=%d p0=%q p1=%q", val, pending[0], pending[1])
	return s
}

// Key implements ioa.State.
func (s *regState) Key() string { return s.key }

// NewRegister builds the automaton for one binary register shared by
// processes 0 and 1, initialized to initVal. Reads and writes from
// each port are serialized by the register (atomicity); the register's
// responses form its single fairness class.
func NewRegister(name string, initVal int) *ioa.Prog {
	d := ioa.NewDef("R_" + name)
	d.Start(newRegState(initVal, [2]string{"", ""}))
	class := name
	for i := 0; i < 2; i++ {
		i := i
		for v := 0; v < 2; v++ {
			v := v
			d.Input(Write(name, i, v), func(st ioa.State) ioa.State {
				s := st.(*regState)
				if s.pending[i] != "" {
					return s // protocol violation by the client: ignored
				}
				p := s.pending
				p[i] = "w" + itoa(v)
				return newRegState(s.val, p)
			})
			d.Output(Value(name, i, v), class,
				func(st ioa.State) bool {
					s := st.(*regState)
					return s.pending[i] == "r" && s.val == v
				},
				func(st ioa.State) ioa.State {
					s := st.(*regState)
					p := s.pending
					p[i] = ""
					return newRegState(s.val, p)
				})
		}
		d.Input(Read(name, i), func(st ioa.State) ioa.State {
			s := st.(*regState)
			if s.pending[i] != "" {
				return s
			}
			p := s.pending
			p[i] = "r"
			return newRegState(s.val, p)
		})
		d.Output(Ack(name, i), class,
			func(st ioa.State) bool {
				s := st.(*regState)
				return s.pending[i] == "w0" || s.pending[i] == "w1"
			},
			func(st ioa.State) ioa.State {
				s := st.(*regState)
				val := 0
				if s.pending[i] == "w1" {
					val = 1
				}
				p := s.pending
				p[i] = ""
				return newRegState(val, p)
			})
	}
	return d.MustBuild()
}

// NewStuckRegister builds a faulty binary register whose value is
// stuck at the given constant: writes are acknowledged but silently
// discarded, and reads always return stuck. It is NewRegister under a
// faults.Clamp that projects every state back onto val = stuck —
// failure injection for showing that Peterson's algorithm's safety
// rests on the registers' semantics.
func NewStuckRegister(name string, stuck int) ioa.Automaton {
	return faults.Clamp(NewRegister(name, stuck), "stuck", func(st ioa.State) ioa.State {
		s := st.(*regState)
		if s.val == stuck {
			return s
		}
		return newRegState(stuck, s.pending)
	})
}

// Process program counters.
const (
	pcIdle      = "idle"
	pcSetFlag   = "setFlag"   // issuing write flag_i := 1
	pcAwaitFlag = "awaitFlag" // awaiting its ack
	pcSetTurn   = "setTurn"   // issuing write turn := j
	pcAwaitTurn = "awaitTurn"
	pcReadFlag  = "readFlag" // issuing read flag_j
	pcAwaitFJ   = "awaitFJ"
	pcReadTurn  = "readTurn" // issuing read turn
	pcAwaitT    = "awaitT"
	pcToCrit    = "toCrit" // about to announce crit(i)
	pcInCrit    = "inCrit"
	pcReset     = "reset" // issuing write flag_i := 0
	pcAwaitRst  = "awaitRst"
	pcToRem     = "toRem" // about to announce rem(i)
)

type procState struct {
	pc  string
	key string
}

func newProcState(pc string) *procState {
	return &procState{pc: pc, key: pc}
}

// Key implements ioa.State.
func (s *procState) Key() string { return s.key }

// NewProcess builds Peterson process i (with peer j = 1−i):
//
//	on try(i):  flag_i := 1; turn := j;
//	            loop: if flag_j = 0 → crit(i)
//	                  else if turn = i → crit(i)
//	                  else repeat
//	on exit(i): flag_i := 0; rem(i)
//
// All locally-controlled actions of the process form one class.
func NewProcess(i int) *ioa.Prog {
	j := 1 - i
	flagI, flagJ := RegFlag0, RegFlag1
	if i == 1 {
		flagI, flagJ = RegFlag1, RegFlag0
	}
	class := "p" + itoa(i)
	d := ioa.NewDef("P" + itoa(i))
	d.Start(newProcState(pcIdle))

	at := func(pc string) func(ioa.State) bool {
		return func(s ioa.State) bool { return s.(*procState).pc == pc }
	}
	goTo := func(pc string) func(ioa.State) ioa.State {
		return func(ioa.State) ioa.State { return newProcState(pc) }
	}
	moveOn := func(from, to string) func(ioa.State) ioa.State {
		return func(s ioa.State) ioa.State {
			if s.(*procState).pc == from {
				return newProcState(to)
			}
			return s
		}
	}

	d.Input(Try(i), moveOn(pcIdle, pcSetFlag))
	d.Output(Write(flagI, i, 1), class, at(pcSetFlag), goTo(pcAwaitFlag))
	d.Input(Ack(flagI, i), func(s ioa.State) ioa.State {
		switch s.(*procState).pc {
		case pcAwaitFlag:
			return newProcState(pcSetTurn)
		case pcAwaitRst:
			return newProcState(pcToRem)
		default:
			return s
		}
	})
	d.Output(Write(RegTurn, i, j), class, at(pcSetTurn), goTo(pcAwaitTurn))
	d.Input(Ack(RegTurn, i), moveOn(pcAwaitTurn, pcReadFlag))
	d.Output(Read(flagJ, i), class, at(pcReadFlag), goTo(pcAwaitFJ))
	d.Input(Value(flagJ, i, 0), moveOn(pcAwaitFJ, pcToCrit))
	d.Input(Value(flagJ, i, 1), moveOn(pcAwaitFJ, pcReadTurn))
	d.Output(Read(RegTurn, i), class, at(pcReadTurn), goTo(pcAwaitT))
	d.Input(Value(RegTurn, i, i), moveOn(pcAwaitT, pcToCrit))
	d.Input(Value(RegTurn, i, j), moveOn(pcAwaitT, pcReadFlag)) // spin
	d.Output(Crit(i), class, at(pcToCrit), goTo(pcInCrit))
	d.Input(Exit(i), moveOn(pcInCrit, pcReset))
	d.Output(Write(flagI, i, 0), class, at(pcReset), goTo(pcAwaitRst))
	d.Output(Rem(i), class, at(pcToRem), goTo(pcIdle))
	return d.MustBuild()
}

// System bundles the two Peterson processes and the three registers.
type System struct {
	Procs     [2]*ioa.Prog
	Registers []*ioa.Prog
	// Mutex is the hidden composition: externally only try/crit/
	// exit/rem remain.
	Mutex ioa.Automaton
	// Composite is the raw composition (processes 0, 1, then the
	// registers flag0, flag1, turn).
	Composite *ioa.Composite
}

// New assembles Peterson's algorithm.
func New() (*System, error) {
	sys := &System{
		Registers: []*ioa.Prog{
			NewRegister(RegFlag0, 0),
			NewRegister(RegFlag1, 0),
			NewRegister(RegTurn, 0),
		},
	}
	sys.Procs[0] = NewProcess(0)
	sys.Procs[1] = NewProcess(1)
	comps := []ioa.Automaton{sys.Procs[0], sys.Procs[1]}
	for _, r := range sys.Registers {
		comps = append(comps, r)
	}
	composite, err := ioa.Compose("peterson", comps...)
	if err != nil {
		return nil, err
	}
	sys.Composite = composite
	keep := ioa.NewSet(Crit(0), Crit(1), Rem(0), Rem(1))
	sys.Mutex = ioa.HideOutputsExcept(composite, keep)
	return sys, nil
}

// InCritCount returns how many processes are in their critical section
// in a composite state; the mutual-exclusion invariant asserts ≤ 1.
func (s *System) InCritCount(st ioa.State) int {
	ts, ok := st.(*ioa.TupleState)
	if !ok {
		return -1
	}
	n := 0
	for i := 0; i < 2; i++ {
		// The critical section spans from crit(i) to exit(i): only
		// pcInCrit counts (the reset phase is already post-exit).
		if ts.At(i).(*procState).pc == pcInCrit {
			n++
		}
	}
	return n
}

// PCOf returns process i's program counter in a composite state.
func (s *System) PCOf(st ioa.State, i int) string {
	ts, ok := st.(*ioa.TupleState)
	if !ok {
		return ""
	}
	return ts.At(i).(*procState).pc
}
