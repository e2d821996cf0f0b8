// Command chaosbench soaks the self-healing replica fleet under seeded
// replica-scoped faults: for each scenario (sustained latency inflation,
// a stuck kernel, silent output corruption, all at once) one replica of
// a three-replica quorum fleet is degraded and the supervisor's response
// is tabulated — detections, quarantines, background rebuilds through
// the shared timing cache, canary-validated readmissions, and wrong-
// answer escapes. Everything is seeded, so the table and the transition
// transcripts are byte-identical across runs.
//
// Usage:
//
//	chaosbench                          # default soak, prints and writes results/chaos.txt
//	chaosbench -model resnet18 -requests 60
//	chaosbench -out ""                  # print only
//	chaosbench -smoke                   # CI gate: exit non-zero on any escape or leaked quarantine
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"edgeinfer/internal/atomicfile"
	"edgeinfer/internal/experiments"
	"edgeinfer/internal/models"
)

func main() {
	model := flag.String("model", "resnet18", "model to serve (must have a numeric proxy)")
	requests := flag.Int("requests", 60, "requests per scenario")
	out := flag.String("out", "results/chaos.txt", "also write the table to this file (empty disables)")
	smoke := flag.Bool("smoke", false, "CI gate: fail on wrong-answer escapes or leaked quarantines")
	flag.Parse()

	if !models.HasProxy(*model) {
		fmt.Fprintf(os.Stderr, "chaosbench: no numeric proxy for %q (need one of the classification models)\n", *model)
		os.Exit(2)
	}

	text, rows, err := experiments.NewLab(experiments.Default()).RenderChaosSoakFor(*model, *requests)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaosbench:", err)
		os.Exit(1)
	}
	fmt.Println(text)

	if *out != "" {
		if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "chaosbench:", err)
			os.Exit(1)
		}
		if err := atomicfile.WriteFile(*out, []byte(text+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "chaosbench:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *out)
	}

	if *smoke {
		failed := false
		for _, r := range rows {
			if r.Escapes != 0 {
				fmt.Fprintf(os.Stderr, "chaosbench: FAIL scenario %s: %d wrong-answer escapes\n", r.Scenario, r.Escapes)
				failed = true
			}
			if r.ActiveEnd != 3 {
				fmt.Fprintf(os.Stderr, "chaosbench: FAIL scenario %s: %d active replicas at soak end (leaked quarantine)\n", r.Scenario, r.ActiveEnd)
				failed = true
			}
			if r.Scenario != "none" && (r.Quarantines == 0 || r.Readmissions == 0) {
				fmt.Fprintf(os.Stderr, "chaosbench: FAIL scenario %s: healing lifecycle incomplete (%d quarantines, %d readmissions)\n",
					r.Scenario, r.Quarantines, r.Readmissions)
				failed = true
			}
		}
		if failed {
			os.Exit(1)
		}
		fmt.Println("chaos smoke: ok (zero escapes, zero leaked quarantines)")
	}
}
