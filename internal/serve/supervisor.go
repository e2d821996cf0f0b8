package serve

import "fmt"

// The replica Pool's health lattice: each member walks
//
//	healthy → suspect → quarantined → rebuilding → readmitted → healthy
//
// Observe takes the traffic-driven edges from the owner's anomaly
// verdicts; recovery (rebuild, readmission) is the owner's repair
// machinery and takes its edges through Move. A member is anomalous
// once an EWMA of its observed over expected service time exceeds
// LatencyThreshold.

// LatencyThreshold is the latency watchdog's trip point: observed over
// expected service time. Run jitter is about 2%, so nothing natural gets
// close, while a sustained inflation clears it even on tiny proxy
// engines whose fixed launch overhead dilutes kernel-time slowdowns.
const LatencyThreshold = 1.4

// ReplicaState is one stage of the supervisor's per-member state
// machine.
type ReplicaState int

const (
	// StateHealthy members serve traffic with no live anomaly signal.
	StateHealthy ReplicaState = iota
	// StateSuspect members serve traffic while an anomaly signal is
	// being confirmed.
	StateSuspect
	// StateQuarantined members are out of the dispatch set, waiting for
	// the rebuild to land.
	StateQuarantined
	// StateRebuilding members are being rebuilt and canary-validated.
	StateRebuilding
	// StateReadmitted members are back in the dispatch set on
	// probation: one clean observation away from healthy.
	StateReadmitted

	numStates
)

var stateNames = [numStates]string{
	"healthy", "suspect", "quarantined", "rebuilding", "readmitted",
}

// String implements fmt.Stringer.
func (s ReplicaState) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// supervisor owns each member's health state by index and keeps the
// transcript, one line per transition, clocked in requests:
//
//	req <at>: <label(m)> <from>-><to>[ <detail>]
//
// It does no locking: its owner serializes the calls.
type supervisor struct {
	label      func(m int) string
	state      []ReplicaState
	transcript []string
}

// newSupervisor supervises n members, all healthy. label renders member
// m at transition time.
func newSupervisor(n int, label func(m int) string) *supervisor {
	return &supervisor{
		label: label,
		state: make([]ReplicaState, n),
	}
}

// State returns member m's state.
func (s *supervisor) State(m int) ReplicaState { return s.state[m] }

// Move takes member m to state to at clock at, appending a transcript
// line; detail, when not empty, ends it.
func (s *supervisor) Move(at uint64, m int, to ReplicaState, detail string) {
	from := s.state[m]
	s.state[m] = to
	line := fmt.Sprintf("req %d: %s %s->%s", at, s.label(m), from, to)
	if detail != "" {
		line += " " + detail
	}
	s.transcript = append(s.transcript, line)
}

// Observe folds one anomaly verdict into member m's state. An anomalous
// observation turns a healthy or readmitted member suspect and a suspect
// quarantined, both transcribed with signal: only Observe makes a member
// suspect, so two anomalous observations in a row quarantine it. A clean
// one clears a suspect or passes a readmitted member's probation. Quarantined and rebuilding members are out of the
// observation path: nothing changes. It reports whether the
// observation raised a new suspicion and whether it quarantined m.
func (s *supervisor) Observe(at uint64, m int, anomalous bool, signal string) (detected, quarantined bool) {
	switch st := s.state[m]; {
	case anomalous && (st == StateHealthy || st == StateReadmitted):
		s.Move(at, m, StateSuspect, signal)
		return true, false
	case anomalous && st == StateSuspect:
		s.Move(at, m, StateQuarantined, signal)
		return false, true
	case !anomalous && st == StateSuspect:
		s.Move(at, m, StateHealthy, "cleared")
	case !anomalous && st == StateReadmitted:
		s.Move(at, m, StateHealthy, "probation passed")
	}
	return false, false
}

// Transcript returns a copy of the transition log.
func (s *supervisor) Transcript() []string {
	return append([]string(nil), s.transcript...)
}
