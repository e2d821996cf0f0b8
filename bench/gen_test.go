package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// describe renders everything a workload's generator emits for a seed:
// schedules, bodies and headers. Two runs send the same inputs exactly
// when their descriptions are byte-identical.
func describe(t *testing.T, workload string, seed int64) []byte {
	t.Helper()
	var b bytes.Buffer
	write := func(rs reqSpec) {
		fmt.Fprintf(&b, "%d %v %q %s\n", rs.Input, rs.Due, rs.Headers, rs.Body)
	}
	switch workload {
	case wlServeClosed, wlServeRaw:
		spec := serveSpecs[workload]
		bodies := corpusBodies(spec.raw)
		for c := 0; c < spec.conns; c++ {
			s := newClosedStream(workload, seed, c, spec.conns, bodies)
			for i := 0; i < 300; i++ {
				write(s.next())
			}
		}
	case wlServeOpenEDF:
		for _, rs := range openSchedule(seed, 3*time.Second, corpusBodies(false)) {
			write(rs)
		}
	case wlBuildZoo:
		fmt.Fprintf(&b, "build id %d, probe input %d\n", zooBuildID(seed), zooProbeInput(seed))
	case wlTables:
		fmt.Fprintf(&b, "%v\n", tablesSchedule(false))
	default:
		t.Fatalf("no generator for %s", workload)
	}
	return b.Bytes()
}

func TestSameSeedSameInputsDifferentSeedDifferentInputs(t *testing.T) {
	for _, w := range workloads {
		a, again, other := describe(t, w.Name, 7), describe(t, w.Name, 7), describe(t, w.Name, 8)
		if len(a) == 0 {
			t.Errorf("%s: the generator emitted nothing", w.Name)
		}
		if !bytes.Equal(a, again) {
			t.Errorf("%s: seed 7 generated different inputs the second time", w.Name)
		}
		if w.Name == wlTables {
			// The one workload without a free input: the Lab's options and
			// the artifact order are what results/alltables.txt pins.
			if !bytes.Equal(a, other) {
				t.Errorf("tables: the schedule must not depend on the seed")
			}
			continue
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", w.Name)
		}
	}
}

func TestRawBodiesDecodeBitExact(t *testing.T) {
	for i, x := range rawCorpus()[:8] {
		var body struct {
			Shape [4]int    `json:"shape"`
			Data  []float32 `json:"data"`
		}
		if err := json.Unmarshal(rawBody(x), &body); err != nil {
			t.Fatalf("tensor %d: %v", i, err)
		}
		if body.Shape != x.Shape() || len(body.Data) != len(x.Data) {
			t.Fatalf("tensor %d: decoded shape %v with %d values", i, body.Shape, len(body.Data))
		}
		for k := range x.Data {
			if body.Data[k] != x.Data[k] {
				t.Fatalf("tensor %d element %d: %v decoded as %v", i, k, x.Data[k], body.Data[k])
			}
		}
	}
}

// The trace linker recognises a batch member by its signature, so no two
// corpus tensors may share one.
func TestCorpusSignaturesAreUnique(t *testing.T) {
	for name, corpus := range map[string]int{"raw": rawCorpusSize, "index": indexCorpusSize} {
		ts := corpusTensors(name == "raw")
		if len(ts) != corpus {
			t.Fatalf("%s corpus has %d tensors, want %d", name, len(ts), corpus)
		}
		seen := map[uint64]int{}
		for i, x := range ts {
			if j, dup := seen[signature(x)]; dup {
				t.Errorf("%s corpus: tensors %d and %d share a signature", name, j, i)
			}
			seen[signature(x)] = i
		}
	}
}

// No two requests in flight may carry the same input: a connection only
// ever draws inputs of its own residue class.
func TestClosedStreamsNeverShareAnInput(t *testing.T) {
	bodies := corpusBodies(false)
	for c := 0; c < 2; c++ {
		s := newClosedStream(wlServeClosed, 3, c, 2, bodies)
		for i := 0; i < 1000; i++ {
			rs := s.next()
			if rs.Input%2 != c || !bytes.Equal(rs.Body, bodies[rs.Input]) {
				t.Fatalf("connection %d drew input %d with body %s", c, rs.Input, rs.Body)
			}
		}
	}
}

func TestOpenScheduleShape(t *testing.T) {
	const secs = 10
	sched := openSchedule(5, secs*time.Second, corpusBodies(false))
	if got, want := len(sched), secs*(openTickHz+(openBurstSize-1)*openTickHz/openBurstEvery); got != want {
		t.Fatalf("%d arrivals in %d s, want %d (135/s)", got, secs, want)
	}
	high, perTick := 0, map[time.Duration]int{}
	for i, rs := range sched {
		if i > 0 && rs.Due < sched[i-1].Due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		perTick[rs.Due]++
		for _, kv := range rs.Headers {
			if kv == [2]string{"X-Priority", "high"} {
				high++
			}
		}
		// Any 100 consecutive arrivals carry distinct inputs.
		if i >= indexCorpusSize && rs.Input != sched[i-indexCorpusSize].Input {
			t.Fatalf("arrival %d breaks the input permutation", i)
		}
	}
	seen := map[int]bool{}
	for _, rs := range sched[:indexCorpusSize] {
		if seen[rs.Input] {
			t.Fatalf("input %d repeats within 100 consecutive arrivals", rs.Input)
		}
		seen[rs.Input] = true
	}
	bursts := 0
	for _, n := range perTick {
		if n == openBurstSize {
			bursts++
		} else if n != 1 {
			t.Fatalf("a tick carries %d arrivals", n)
		}
	}
	if bursts != secs*openTickHz/openBurstEvery {
		t.Errorf("%d bursts, want %d", bursts, secs*openTickHz/openBurstEvery)
	}
	if frac := float64(high) / float64(len(sched)); frac < 0.15 || frac > 0.25 {
		t.Errorf("%.1f%% of arrivals are high priority, want about 20%%", 100*frac)
	}
}
