// Package faults provides composable fault transformers for I/O
// automata: lossy / duplicating / reordering / delaying channels,
// process crash-restart wrappers, and state-corruption clamps.
//
// The paper (§3.3) proves the arbiter correct over a reliable FIFO
// message automaton M and names fault tolerance as the open direction
// (Chapter 4). This package is the one place faults are built — M
// itself is NewNetwork with the zero Injection, and the arbiter's
// lossy and reordering channels and the stuck shared register of
// internal/mutex are this API — in two styles:
//
//   - Adversary faults: extra internal actions (drop(a,a'),
//     dup(a,a'), reorder(a,a')) added to a channel automaton. The
//     scheduler chooses when they fire, so explore.Reach sees every
//     fault interleaving — best for exhaustive counterexample search.
//
//   - Scheduled faults: a deterministic Schedule derived from a seed
//     decides, per message, whether it is dropped, duplicated, or
//     delayed. Decisions are pure functions of (seed, channel,
//     sequence number), so the automaton remains a deterministic
//     function of its state (the ioa.Automaton contract) and every
//     run is reproducible from the seed — best for chaos sweeps.
//
// Process faults are automaton wrappers: CrashRestart adds
// crash/restart actions around any automaton, and Clamp forces a
// state corruption (e.g. a stuck register) after every step. Both step
// the wrapped automaton on the heap whatever scratch they are handed:
// the state they yield wraps or rewrites the inner successor, and
// ioa.Keep could not copy a borrowed tuple hidden inside it.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// A Class names one kind of injected fault.
type Class int

const (
	// Drop loses a message in transit.
	Drop Class = iota
	// Duplicate delivers a message more than once.
	Duplicate
	// Reorder swaps adjacent messages on a channel (adversary mode).
	Reorder
	// Delay holds a message back so later sends overtake it, up to a
	// bound (scheduled mode; in adversary mode it degenerates to
	// Reorder).
	Delay
	// Crash stops a process; only meaningful for CrashRestart
	// wrappers, never for channels.
	Crash
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Drop:
		return "drop"
	case Duplicate:
		return "dup"
	case Reorder:
		return "reorder"
	case Delay:
		return "delay"
	case Crash:
		return "crash"
	default:
		return fmt.Sprintf("faults.Class(%d)", int(c))
	}
}

// A Profile gives per-message fault rates for scheduled injection.
// The zero Profile is fault-free.
type Profile struct {
	// Drop is the probability that a sent message is lost.
	Drop float64 `json:"drop,omitempty"`
	// Duplicate is the probability that a sent message is enqueued
	// twice (the copy is placed adjacent to the original, so FIFO
	// order between distinct messages is preserved).
	Duplicate float64 `json:"dup,omitempty"`
	// Delay bounds how many later sends may overtake a message.
	// Each message receives a deterministic overtake budget in
	// [0, Delay]; 0 disables delay faults (per-channel FIFO).
	Delay int `json:"delay,omitempty"`
	// Crash is the probability that a send opens a crash window on its
	// channel: the receiving endpoint goes down and the next CrashLen
	// sends on that channel (this one included) are lost. Crash windows
	// model a crash-restart of the receiver between two sends — a burst
	// loss, where Drop models independent per-message loss.
	Crash float64 `json:"crash,omitempty"`
	// CrashLen is the crash-window length in sends; 0 means
	// DefaultCrashLen. Ignored when Crash is 0.
	CrashLen int `json:"crashlen,omitempty"`
}

// DefaultCrashLen is the crash-window length used when
// Profile.CrashLen is 0.
const DefaultCrashLen = 4

// Zero reports whether the profile injects no faults.
func (p Profile) Zero() bool {
	return p.Drop == 0 && p.Duplicate == 0 && p.Delay == 0 && p.Crash == 0
}

// String renders the profile in the "drop=0.1,dup=0.05,delay=3" form
// accepted by ParseProfile. The zero profile renders as "none".
func (p Profile) String() string {
	var parts []string
	if p.Drop != 0 {
		parts = append(parts, "drop="+strconv.FormatFloat(p.Drop, 'g', -1, 64))
	}
	if p.Duplicate != 0 {
		parts = append(parts, "dup="+strconv.FormatFloat(p.Duplicate, 'g', -1, 64))
	}
	if p.Delay != 0 {
		parts = append(parts, "delay="+strconv.Itoa(p.Delay))
	}
	if p.Crash != 0 {
		parts = append(parts, "crash="+strconv.FormatFloat(p.Crash, 'g', -1, 64))
	}
	if p.CrashLen != 0 {
		parts = append(parts, "crashlen="+strconv.Itoa(p.CrashLen))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// validate checks rates are in range.
func (p Profile) validate() error {
	if p.Drop < 0 || p.Drop > 1 {
		return fmt.Errorf("faults: drop rate %v outside [0,1]", p.Drop)
	}
	if p.Duplicate < 0 || p.Duplicate > 1 {
		return fmt.Errorf("faults: dup rate %v outside [0,1]", p.Duplicate)
	}
	if p.Delay < 0 {
		return fmt.Errorf("faults: negative delay bound %d", p.Delay)
	}
	if p.Crash < 0 || p.Crash > 1 {
		return fmt.Errorf("faults: crash rate %v outside [0,1]", p.Crash)
	}
	if p.CrashLen < 0 {
		return fmt.Errorf("faults: negative crash-window length %d", p.CrashLen)
	}
	return nil
}

// ParseProfile parses a comma-separated fault spec such as
// "drop=0.1,dup=0.05,delay=3,crash=0.05,crashlen=4". Keys: drop
// (rate), dup (rate), delay (overtake bound), crash (window-open
// rate), crashlen (window length in sends). "none" and "" parse to the
// zero profile.
func ParseProfile(s string) (Profile, error) {
	var p Profile
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return p, nil
	}
	for _, field := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return p, fmt.Errorf("faults: bad fault spec %q (want key=value)", field)
		}
		switch key {
		case "delay", "crashlen":
			n, err := strconv.Atoi(val)
			if err != nil {
				return p, fmt.Errorf("faults: bad %s bound %q: %v", key, val, err)
			}
			if key == "delay" {
				p.Delay = n
			} else {
				p.CrashLen = n
			}
			continue
		case "drop", "dup", "crash":
		default:
			return p, fmt.Errorf("faults: unknown fault class %q (want drop, dup, delay, crash, or crashlen)", key)
		}
		rate, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return p, fmt.Errorf("faults: bad %s rate %q: %v", key, val, err)
		}
		switch key {
		case "drop":
			p.Drop = rate
		case "dup":
			p.Duplicate = rate
		default:
			p.Crash = rate
		}
	}
	return p, p.validate()
}

// A Schedule is a deterministic fault oracle: every decision is a
// pure function of (Seed, fault class, channel, per-channel sequence
// number). Two runs with the same seed and the same send order see
// identical faults, and the channel automaton built from a Schedule
// is still a deterministic function of its state, as the
// ioa.Automaton contract requires.
//
// A nil *Schedule injects no faults. Note that liveness arguments for
// retransmission protocols need fair-lossy channels: with Drop < 1
// every retransmission class gets infinitely many coin flips, of
// which infinitely many land "deliver".
type Schedule struct {
	Seed    int64
	Profile Profile
	// Obs, when non-nil, counts the schedule's fault decisions as they
	// are applied at enqueue time and records them as instant trace
	// events. Note the counters tally distinct fault computations, not
	// trace occurrences: under the composition memo a channel's
	// transition from a given (state, action) is computed once and then
	// replayed from cache, so a decision reached through the cache is
	// not recounted. Observability never changes any decision.
	Obs *obs.Obs
}

// NewSchedule builds a schedule after validating the profile.
func NewSchedule(seed int64, p Profile) (*Schedule, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	return &Schedule{Seed: seed, Profile: p}, nil
}

// splitmix64 finalizer: a cheap strong mixer (public-domain constant
// set from Vigna's splitmix64), used to turn (seed, tag, channel,
// seq) into an i.i.d.-looking 64-bit word.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash folds the decision coordinates into one word.
func (sc *Schedule) hash(tag, channel string, seq uint64) uint64 {
	h := mix(uint64(sc.Seed))
	for i := 0; i < len(tag); i++ {
		h = mix(h ^ uint64(tag[i]))
	}
	h = mix(h ^ 0xff) // separator between tag and channel
	for i := 0; i < len(channel); i++ {
		h = mix(h ^ uint64(channel[i]))
	}
	return mix(h ^ seq)
}

// coin reports whether the deterministic coin for (tag, channel, seq)
// lands below rate.
func (sc *Schedule) coin(tag, channel string, seq uint64, rate float64) bool {
	if sc == nil || rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	const scale = 1 << 53
	return float64(sc.hash(tag, channel, seq)>>11)/scale < rate
}

// DropsMessage reports whether message seq on channel is lost.
func (sc *Schedule) DropsMessage(channel string, seq uint64) bool {
	if sc == nil {
		return false
	}
	return sc.coin("drop", channel, seq, sc.Profile.Drop)
}

// DuplicatesMessage reports whether message seq on channel is
// enqueued twice.
func (sc *Schedule) DuplicatesMessage(channel string, seq uint64) bool {
	if sc == nil {
		return false
	}
	return sc.coin("dup", channel, seq, sc.Profile.Duplicate)
}

// CrashesMessage reports whether message seq on channel falls inside a
// crash window: some send in the last CrashLen sends (seq included)
// opened a window, so the receiver is down and the message is lost.
// opens additionally reports that seq itself opened the window —
// callers count one crash per window, not per lost message. Like every
// Schedule decision this is a pure function of (seed, channel, seq),
// so a window is a burst of CrashLen consecutive lost sends.
func (sc *Schedule) CrashesMessage(channel string, seq uint64) (lost, opens bool) {
	if sc == nil || sc.Profile.Crash == 0 {
		return false, false
	}
	n := sc.Profile.CrashLen
	if n == 0 {
		n = DefaultCrashLen
	}
	for i := 0; i < n && uint64(i) <= seq; i++ {
		if sc.coin("crash", channel, seq-uint64(i), sc.Profile.Crash) {
			return true, i == 0
		}
	}
	return false, false
}

// SlackOf returns the overtake budget of message seq on channel: how
// many later sends may slip ahead of it. Uniform over [0, Delay].
func (sc *Schedule) SlackOf(channel string, seq uint64) int {
	if sc == nil || sc.Profile.Delay <= 0 {
		return 0
	}
	return int(sc.hash("delay", channel, seq) % uint64(sc.Profile.Delay+1))
}

// sortedClasses canonicalizes an adversary class list (dedup, sorted,
// Delay folded into Reorder).
func sortedClasses(cs []Class) ([]Class, error) {
	seen := make(map[Class]bool)
	var out []Class
	for _, c := range cs {
		if c == Delay {
			c = Reorder // bounded delay under an adversary is realized by reordering
		}
		if c == Crash {
			return nil, fmt.Errorf("faults: Crash is a process fault; wrap the process with CrashRestart instead")
		}
		if c < Drop || c > Crash {
			return nil, fmt.Errorf("faults: unknown fault class %d", int(c))
		}
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}
