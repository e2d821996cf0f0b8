package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// Pinned expected outputs. They were generated once, by `edgebench -pin`
// at the commit that introduced the benchmark, and every later run is
// checked against them: an answer that differs is a failed operation.
// Because the workloads draw from fixed corpora (see gen.go) the serve
// files hold for every -seed; build_zoo.json pins each build id a seed
// can select.
//
//go:embed expected/*.json
var expectedFS embed.FS

// answers pins the argmax of every corpus input on one serving stack.
type answers struct {
	Model   string `json:"model"`
	Backend string `json:"backend"` // "executor" or "quorum3" (the voted answer)
	Argmax  []int  `json:"argmax"`  // by corpus index
}

// check reports whether got is the pinned answer for a corpus input.
func (a *answers) check(input, got int) bool {
	return input >= 0 && input < len(a.Argmax) && a.Argmax[input] == got
}

// zooBuild pins the simulated outputs of one build_zoo round. None of
// them may move under a host-only optimisation.
type zooBuild struct {
	SimMsMean       float64 `json:"sim_ms_mean"` // mean ExpectedLatencySec of the 13 cold engines
	TacticsTimed    int     `json:"tactics_timed"`
	CacheHits       int     `json:"cache_hits"`
	PredictedPrunes int     `json:"predicted_prunes"`
	TuneCostSimS    float64 `json:"tune_cost_sim_s"`
}

type zooAnswers struct {
	Builds      map[string]zooBuild `json:"builds"`       // by build id
	ProxyArgmax map[string][]int    `json:"proxy_argmax"` // by proxy model, then raw-corpus index
}

var intArray = regexp.MustCompile(`\[[\s\d,-]+\]`)

func loadExpected(name string, into any) error {
	data, err := expectedFS.ReadFile("expected/" + name + ".json")
	if err != nil {
		return fmt.Errorf("expected answers for %s: %w (generate with -pin)", name, err)
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("expected answers for %s: %w", name, err)
	}
	return nil
}

func loadAnswers(workload string) (*answers, error) {
	var a answers
	if err := loadExpected(workload, &a); err != nil {
		return nil, err
	}
	return &a, nil
}

func writeExpected(dir, name string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("pin %s: %w", name, err)
	}
	// One line per answer array, not one per answer.
	data = intArray.ReplaceAllFunc(data, func(m []byte) []byte {
		return bytes.Join(bytes.Fields(m), nil)
	})
	if err := os.WriteFile(filepath.Join(dir, name+".json"), append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("pin %s: %w", name, err)
	}
	return nil
}
