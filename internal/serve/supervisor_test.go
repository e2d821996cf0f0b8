package serve

import (
	"fmt"
	"regexp"
	"strconv"
	"testing"
)

// lattice lists every edge a member may take: Observe's traffic-driven
// edges (the readmitted->healthy one is "probation passed"), then the
// Pool's repair edges through Move — rebuild, failed canary and
// readmission.
var lattice = map[[2]ReplicaState]bool{
	{StateHealthy, StateSuspect}:        true,
	{StateReadmitted, StateSuspect}:     true,
	{StateSuspect, StateQuarantined}:    true,
	{StateSuspect, StateHealthy}:        true,
	{StateReadmitted, StateHealthy}:     true,
	{StateQuarantined, StateRebuilding}: true,
	{StateRebuilding, StateQuarantined}: true,
	{StateRebuilding, StateReadmitted}:  true,
}

// moveEdges are the lattice edges the Pool takes through Move.
var moveEdges = map[[2]ReplicaState]bool{
	{StateQuarantined, StateRebuilding}: true,
	{StateRebuilding, StateQuarantined}: true,
	{StateRebuilding, StateReadmitted}:  true,
}

// supOp is one call on a supervisor: Observe(m, anomalous) when move is
// false, Move(m, to) otherwise.
type supOp struct {
	m         int
	move      bool
	anomalous bool
	to        ReplicaState
}

// supModel is the test's own account of the lattice: each member's
// state and consecutive strikes, with a confirmation count of 2.
type supModel struct {
	state   [2]ReplicaState
	strikes [2]int
}

// step applies op to the model and returns the edge it predicts, whether
// that edge is taken (a Move always is; an Observe only when the state
// changes) and Observe's two verdicts.
func (md *supModel) step(op supOp) (edge [2]ReplicaState, moved, detected, quarantined bool) {
	from := md.state[op.m]
	if op.move {
		md.state[op.m] = op.to
		return [2]ReplicaState{from, op.to}, true, false, false
	}
	to := from
	switch {
	case op.anomalous && (from == StateHealthy || from == StateReadmitted):
		md.strikes[op.m] = 1
		to, detected = StateSuspect, true
	case op.anomalous && from == StateSuspect:
		md.strikes[op.m]++
		if md.strikes[op.m] >= 2 {
			to, quarantined = StateQuarantined, true
		}
	case !op.anomalous && from == StateSuspect:
		md.strikes[op.m] = 0
		to = StateHealthy
	case !op.anomalous && from == StateReadmitted:
		to = StateHealthy
	}
	md.state[op.m] = to
	return [2]ReplicaState{from, to}, to != from, detected, quarantined
}

var transcriptLine = regexp.MustCompile(`^req (\d+): member (\d) (\w+)->(\w+)(?: (.+))?$`)

func parseState(t *testing.T, name string) ReplicaState {
	t.Helper()
	for s := StateHealthy; s < numStates; s++ {
		if s.String() == name {
			return s
		}
	}
	t.Fatalf("transcript names unknown state %q", name)
	return 0
}

// TestSupervisorExhaustive runs every Observe/Move sequence up to
// length 6 over 2 members — Observe either way on either member, and
// every repair edge the Pool may Move a member along — and checks each
// step against supModel: the state, Observe's verdicts, exactly one
// transcript line per edge taken, each line parsing back to its clock,
// member, edge and detail, and every edge on the lattice.
func TestSupervisorExhaustive(t *testing.T) {
	const depth = 6
	var ops []supOp
	for m := 0; m < 2; m++ {
		ops = append(ops, supOp{m: m, anomalous: true}, supOp{m: m})
		for to := StateHealthy; to < numStates; to++ {
			ops = append(ops, supOp{m: m, move: true, to: to})
		}
	}
	label := func(m int) string { return fmt.Sprintf("member %d", m) }
	sequences := 0
	var path []supOp
	var walk func()
	walk = func() {
		sequences++
		s := newSupervisor(2, label)
		var md supModel
		for at, op := range path {
			edge, moved, wantDet, wantQ := md.step(op)
			before := len(s.transcript)
			if op.move {
				s.Move(uint64(at), op.m, op.to, "repair")
			} else if det, q := s.Observe(uint64(at), op.m, op.anomalous, "signal"); det != wantDet || q != wantQ {
				t.Fatalf("%v step %d: Observe = (%v, %v), want (%v, %v)", path, at, det, q, wantDet, wantQ)
			}
			if got := s.State(op.m); got != md.state[op.m] {
				t.Fatalf("%v step %d: member %d is %s, want %s", path, at, op.m, got, md.state[op.m])
			}
			lines := s.transcript[before:]
			if !moved {
				if len(lines) != 0 {
					t.Fatalf("%v step %d: no edge, but transcript gained %q", path, at, lines)
				}
				continue
			}
			if len(lines) != 1 {
				t.Fatalf("%v step %d: edge %s->%s wrote %d lines", path, at, edge[0], edge[1], len(lines))
			}
			if !lattice[edge] {
				t.Fatalf("%v step %d: edge %s->%s is not on the lattice", path, at, edge[0], edge[1])
			}
			f := transcriptLine.FindStringSubmatch(lines[0])
			if f == nil {
				t.Fatalf("%v step %d: transcript line %q does not parse", path, at, lines[0])
			}
			if gotAt, _ := strconv.Atoi(f[1]); gotAt != at || f[2] != strconv.Itoa(op.m) ||
				parseState(t, f[3]) != edge[0] || parseState(t, f[4]) != edge[1] {
				t.Fatalf("%v step %d: line %q, want req %d member %d %s->%s", path, at, lines[0], at, op.m, edge[0], edge[1])
			}
			detail := "signal"
			switch {
			case op.move:
				detail = "repair"
			case edge[0] == StateSuspect && !op.anomalous:
				detail = "cleared"
			case edge[0] == StateReadmitted && !op.anomalous:
				detail = "probation passed"
			}
			if f[5] != detail {
				t.Fatalf("%v step %d: line %q ends %q, want %q", path, at, lines[0], f[5], detail)
			}
		}
		if len(path) == depth {
			return
		}
		for _, op := range ops {
			if op.move && !moveEdges[[2]ReplicaState{md.state[op.m], op.to}] {
				continue
			}
			path = append(path, op)
			walk()
			path = path[:len(path)-1]
		}
	}
	walk()
	t.Logf("%d sequences of up to %d calls", sequences, depth)
}
