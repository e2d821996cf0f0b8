package main

import (
	"encoding/json"
	"net/http"
	"strconv"
	"testing"

	"edgeinfer/internal/netserve"
)

func TestPinnedAnswersCoverEveryInputAndSeed(t *testing.T) {
	for name, size := range map[string]int{wlServeClosed: indexCorpusSize, wlServeRaw: rawCorpusSize, wlServeOpenEDF: indexCorpusSize} {
		a, err := loadAnswers(name)
		if err != nil {
			t.Fatal(err)
		}
		if a.Model != serveSpecs[name].model || len(a.Argmax) != size {
			t.Errorf("%s: answers for model %q cover %d inputs, want %q and %d", name, a.Model, len(a.Argmax), serveSpecs[name].model, size)
		}
	}
	var zoo zooAnswers
	if err := loadExpected(wlBuildZoo, &zoo); err != nil {
		t.Fatal(err)
	}
	// Every build id a seed can select is pinned, so a claim can be re-run
	// on a seed it was not developed with.
	if len(zooBuildIDs) < 2 {
		t.Fatalf("build_zoo pins %d build ids, want at least 2", len(zooBuildIDs))
	}
	for _, id := range zooBuildIDs {
		b, ok := zoo.Builds[strconv.Itoa(id)]
		if !ok || b.TacticsTimed == 0 || b.SimMsMean == 0 {
			t.Errorf("build id %d is not pinned: %+v", id, b)
		}
	}
	for _, m := range proxyModels {
		if len(zoo.ProxyArgmax[m]) != rawCorpusSize {
			t.Errorf("proxy %s: %d pinned answers, want %d", m, len(zoo.ProxyArgmax[m]), rawCorpusSize)
		}
	}
}

// The checker must catch a flipped answer, however it arrives.
func TestCheckerCatchesFlippedAnswer(t *testing.T) {
	a, err := loadAnswers(wlServeClosed)
	if err != nil {
		t.Fatal(err)
	}
	const input = 17
	right := a.Argmax[input]
	if !a.check(input, right) {
		t.Fatalf("the pinned answer itself failed the check")
	}
	if a.check(input, right+1) || a.check(input, -1) {
		t.Errorf("a flipped answer passed the check")
	}
	if a.check(len(a.Argmax), right) || a.check(-1, right) {
		t.Errorf("an input outside the corpus passed the check")
	}

	h := &harness{want: a}
	body := func(r netserve.InferReply) []byte {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !h.verdict(http.StatusOK, body(netserve.InferReply{Argmax: right, QueueMS: 1.5, LatencySec: 2e-3}), input).ok {
		t.Errorf("a correct reply failed")
	}
	for name, rep := range map[string]reply{
		"flipped argmax": h.verdict(http.StatusOK, body(netserve.InferReply{Argmax: right + 1}), input),
		"degraded tier":  h.verdict(http.StatusOK, body(netserve.InferReply{Argmax: right, Degraded: true}), input),
		"shed":           h.verdict(http.StatusServiceUnavailable, body(netserve.InferReply{Argmax: right}), input),
		"expired":        h.verdict(http.StatusGatewayTimeout, []byte(`{"error":"deadline"}`), input),
		"garbage":        h.verdict(http.StatusOK, []byte(`not json`), input),
	} {
		if rep.ok {
			t.Errorf("%s passed the check", name)
		}
	}
}

// A build_zoo round whose simulated outputs or warm plan bytes differ
// from the pinned ones fails every one of its operations.
func TestZooCheckCatchesMovedSimulation(t *testing.T) {
	pinned := zooBuild{SimMsMean: 6.4, TacticsTimed: 2189, CacheHits: 4731, PredictedPrunes: 1300, TuneCostSimS: 11.1}
	f := &zooFixture{id: 2, want: &zooAnswers{Builds: map[string]zooBuild{"2": pinned}}}
	round := func() *zooRound {
		return &zooRound{totals: pinned, planSHA: [][32]byte{{1}, {2}}, ops: []sample{{ok: true}, {ok: true}}}
	}
	reference := round()

	good := round()
	f.check(good, reference)
	if failures(good.ops) != 0 {
		t.Errorf("a round equal to the pinned one failed")
	}
	moved := round()
	moved.totals.TacticsTimed++
	f.check(moved, reference)
	if failures(moved.ops) != len(moved.ops) {
		t.Errorf("a round that timed one more tactic passed")
	}
	drifted := round()
	drifted.totals.SimMsMean += 1e-12
	f.check(drifted, reference)
	if failures(drifted.ops) != len(drifted.ops) {
		t.Errorf("a round whose simulated latency moved in the last digits passed")
	}
	rewritten := round()
	rewritten.planSHA[1][0] ^= 1
	f.check(rewritten, reference)
	if failures(rewritten.ops) != len(rewritten.ops) {
		t.Errorf("a round whose warm plan bytes changed passed")
	}
}

func failures(ops []sample) int {
	n := 0
	for _, o := range ops {
		if !o.ok {
			n++
		}
	}
	return n
}
