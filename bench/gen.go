package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"edgeinfer/internal/dataset"
	"edgeinfer/internal/tensor"
)

// Load generation. Everything a workload sends is a pure function of
// (workload, -seed): the system under test sees only these inputs. The
// inputs themselves come from two fixed corpora — the server's 100
// benign index inputs and 128 raw tensors synthesized here — so that the
// pinned answers under expected/ hold for every seed; the seed decides
// which input goes where, with which headers, and when.

const (
	indexCorpusSize = 100 // netserve's benign inputs, addressed by {"input":N}
	rawCorpusSize   = 128
	rawNoiseSigma   = 3.8 // dataset.DefaultBenign's observation noise

	openTickHz     = 100
	openBurstEvery = 20 // one tick in every block of 20 carries a burst
	openBurstSize  = 8
	openHighFrac   = 0.2
)

var (
	openDeadlinesMs = []int{100, 200, 300}
	openTenants     = []string{"tenant-a", "tenant-b"}
)

// reqSpec is one request as the generator emits it.
type reqSpec struct {
	Input   int // corpus index: selects the body and the pinned answer
	Body    []byte
	Headers [][2]string
	Due     time.Duration // open loop: offset from the start of the run
}

// rawCorpus synthesizes the raw-tensor corpus: class templates under
// observation noise, like the benign set, but drawn from the benchmark's
// own stream so the bodies are inputs the server has never seen. Built
// once; nothing writes to the tensors.
var rawCorpus = sync.OnceValue(func() []*tensor.Tensor {
	tpl := dataset.Templates("imagenet-proxy", dataset.NumClasses)
	rng := rand.New(rand.NewSource(0x5eedc0de))
	out := make([]*tensor.Tensor, rawCorpusSize)
	for i := range out {
		img := tpl[i%len(tpl)].Clone()
		for k := range img.Data {
			img.Data[k] += float32(rawNoiseSigma * rng.NormFloat64())
		}
		out[i] = img
	}
	return out
})

// indexCorpus reproduces the tensors netserve resolves {"input":N} to.
// Only the trace linker and the direct loops need them.
var indexCorpus = sync.OnceValue(func() []*tensor.Tensor {
	samples := dataset.Benign(dataset.DefaultBenign(1))
	out := make([]*tensor.Tensor, len(samples))
	for i, s := range samples {
		out[i] = s.Image
	}
	return out
})

// rawBody renders one tensor as the raw NCHW request body. Floats are
// written shortest-round-trip, so the server decodes the tensor bit-exact.
func rawBody(t *tensor.Tensor) []byte {
	b := make([]byte, 0, 8*len(t.Data))
	b = append(b, fmt.Sprintf(`{"shape":[%d,%d,%d,%d],"data":[`, t.N, t.C, t.H, t.W)...)
	for i, v := range t.Data {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, float64(v), 'g', -1, 32)
	}
	return append(b, "]}"...)
}

func indexBody(n int) []byte { return []byte(fmt.Sprintf(`{"input":%d}`, n)) }

// corpusBodies pre-renders every body of a corpus once, outside any
// timed section: rendering is the generator's cost, not the server's.
func corpusBodies(raw bool) [][]byte {
	if raw {
		ts := rawCorpus()
		out := make([][]byte, len(ts))
		for i, t := range ts {
			out[i] = rawBody(t)
		}
		return out
	}
	out := make([][]byte, indexCorpusSize)
	for i := range out {
		out[i] = indexBody(i)
	}
	return out
}

// signature identifies a corpus tensor from two of its elements, which
// is all the trace decorator reads from a batch member.
func signature(t *tensor.Tensor) uint64 {
	d := t.Data
	return uint64(math.Float32bits(d[len(d)/3]))<<32 | uint64(math.Float32bits(d[2*len(d)/3]))
}

func streamSeed(workload string, seed int64, stream int) int64 {
	h := int64(1469598103934665603)
	for _, c := range workload {
		h = (h ^ int64(c)) * 1099511628211
	}
	return h ^ seed*0x9e3779b97f4a7c ^ int64(stream)<<48
}

// closedStream is one connection's endless request sequence. Connection
// c of n only ever sends corpus inputs congruent to c mod n, so no two
// requests in flight carry the same input and a traced batch's members
// are identified by content.
type closedStream struct {
	rng    *rand.Rand
	conn   int
	conns  int
	bodies [][]byte
}

func newClosedStream(workload string, seed int64, conn, conns int, bodies [][]byte) *closedStream {
	return &closedStream{
		rng:    rand.New(rand.NewSource(streamSeed(workload, seed, conn))),
		conn:   conn,
		conns:  conns,
		bodies: bodies,
	}
}

func (s *closedStream) next() reqSpec {
	per := len(s.bodies) / s.conns
	in := s.rng.Intn(per)*s.conns + s.conn
	return reqSpec{Input: in, Body: s.bodies[in]}
}

// openSchedule is the whole arrival schedule of the open-loop workload
// over dur: 100 ticks a second, one request per tick, and in every block
// of 20 ticks one seed-chosen tick that carries a burst of 8 instead
// (mean 135 req/s). Inputs walk a seed-shuffled permutation of the
// corpus, so any 100 consecutive arrivals are distinct.
func openSchedule(seed int64, dur time.Duration, bodies [][]byte) []reqSpec {
	rng := rand.New(rand.NewSource(streamSeed(wlServeOpenEDF, seed, 0)))
	perm := rng.Perm(len(bodies))
	ticks := int(dur.Seconds() * openTickHz)
	var out []reqSpec
	burstAt := 0
	for t := 0; t < ticks; t++ {
		if t%openBurstEvery == 0 {
			burstAt = t + rng.Intn(openBurstEvery)
		}
		n := 1
		if t == burstAt {
			n = openBurstSize
		}
		due := time.Duration(t) * time.Second / openTickHz
		for k := 0; k < n; k++ {
			in := perm[len(out)%len(perm)]
			hdr := [][2]string{
				{"X-Deadline-Ms", strconv.Itoa(openDeadlinesMs[rng.Intn(len(openDeadlinesMs))])},
				{"X-Tenant", openTenants[rng.Intn(len(openTenants))]},
			}
			if rng.Float64() < openHighFrac {
				hdr = append(hdr, [2]string{"X-Priority", "high"})
			}
			out = append(out, reqSpec{Input: in, Body: bodies[in], Headers: hdr, Due: due})
		}
	}
	return out
}

// zooBuildIDs are the build ids build_zoo may run under; the seed picks
// one, and expected/build_zoo.json pins the simulated outputs of each.
var zooBuildIDs = []int{2, 3, 4, 5, 6, 7, 8, 9}

func zooBuildID(seed int64) int { return zooBuildIDs[pick(seed, len(zooBuildIDs))] }

// zooProbeInput is the raw-corpus tensor build_zoo feeds each fresh
// proxy engine for its first inference.
func zooProbeInput(seed int64) int { return pick(seed, rawCorpusSize) }

// pick maps any seed, negative ones too, onto [0, n).
func pick(seed int64, n int) int {
	return int((seed%int64(n) + int64(n)) % int64(n))
}
