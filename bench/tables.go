package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"edgeinfer/internal/experiments"
)

// tables: what a reader of the paper runs. One pass renders Tables 1-18
// and Figures 3-4 on a fresh Lab in `benchtables -all` order; an
// operation is one artifact, and its text must appear, byte for byte and
// in order, in the committed results/alltables.txt. The workload has no
// free input — the Lab's options and the artifact order are what the
// golden file pins — so the seed changes nothing here.
//
// Twenty artifacts, most of them rendered in a fraction of a millisecond
// and three of them in seconds, cannot support a percentile: the latency
// of an operation is here the time a reader waits for what they asked
// for, the whole pass, so p50_ms and p95_ms both read the pass time.

// heavyArtifacts classify the whole benign set on several engines and
// take seconds; every other artifact renders in milliseconds.
var heavyArtifacts = map[string]bool{"table3": true, "table4": true, "table5": true, "table6": true}

func artifactFuncs(lab *experiments.Lab) map[string]func() string {
	return map[string]func() string{
		"table1": lab.RenderTable1, "table2": lab.RenderTable2, "table3": lab.RenderTable3,
		"table4": lab.RenderTable4, "table5": lab.RenderTable5, "table6": lab.RenderTable6,
		"table7": lab.RenderTable7, "table8": lab.RenderTable8, "table9": lab.RenderTable9,
		"table10": lab.RenderTable10, "table11": lab.RenderTable11, "table12": lab.RenderTable12,
		"table13": lab.RenderTable13, "table14": lab.RenderTable14, "table15": lab.RenderTable15,
		"table16": lab.RenderTable16, "table17": lab.RenderTable17, "table18": lab.RenderTable18,
		"figure3": lab.RenderFigure3, "figure4": lab.RenderFigure4,
	}
}

// tablesSchedule is the artifact order of one pass.
func tablesSchedule(quick bool) []string {
	if !quick {
		return tableArtifacts
	}
	var out []string
	for _, a := range tableArtifacts {
		if !heavyArtifacts[a] {
			out = append(out, a)
		}
	}
	return out
}

// tablesPass renders one pass on a Lab nothing has run on yet, one slice
// and one sample an artifact, and checks each against the golden text, which
// benchtables wrote one Println at a time. A full pass must reproduce
// the file exactly — every artifact where the previous one ended,
// nothing left over; a reduced pass only has to find its artifacts in
// order.
func tablesPass(measure func(func() []sample) slice, lab *experiments.Lab, order []string, golden string) []slice {
	fns := artifactFuncs(lab)
	full := len(order) == len(tableArtifacts)
	slices := make([]slice, 0, len(order))
	at := 0
	for n, name := range order {
		slices = append(slices, measure(func() []sample {
			t0 := time.Now()
			text := fns[name]() + "\n"
			took := time.Since(t0)
			i := strings.Index(golden[at:], text)
			ok := i == 0 || (i > 0 && !full)
			if i >= 0 {
				at += i + len(text)
			}
			if full && n == len(order)-1 && at != len(golden) {
				ok = false
			}
			return []sample{{lat: took, ok: ok}}
		}))
	}
	return slices
}

func tables(cfg runConfig, report io.Writer) (*outcome, error) {
	order := tablesSchedule(cfg.quick)
	// Set-up: the golden file and a throw-away pass over the cheap
	// artifacts, which starts the kernel workers and faults the code in.
	m := newMeter(cfg, runtime.GOMAXPROCS(0)) // the Lab fans its image loops over every CPU
	var golden string
	setups, err := repeatSetup(cfg.setupRepeats(), m, func() error {
		data, err := os.ReadFile(filepath.Join(cfg.root, "results", "alltables.txt"))
		if err != nil {
			return fmt.Errorf("golden tables: %w", err)
		}
		golden = string(data)
		// No reference runs inside a set-up: it is timed as a whole.
		unmetered := func(run func() []sample) slice { return slice{samples: run()} }
		warm := tablesPass(unmetered, experiments.NewLab(experiments.Default()), tablesSchedule(true), golden)
		if reduce(warm).failed > 0 {
			return fmt.Errorf("a warm-up artifact differs from results/alltables.txt")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Whole passes until the measuring time is up: a pass is the unit a
	// reader runs, and every window must hold the same artifacts.
	var ws []windowStats
	var slices []slice
	var lab *experiments.Lab
	start := time.Now()
	for first := true; first || time.Since(start) < cfg.duration(1); first = false {
		lab = experiments.NewLab(experiments.Default())
		// An artifact renders once per Lab, so its slice cannot be retaken.
		slices = tablesPass(m.once, lab, order, golden)
		w := reduce(slices)
		var pass time.Duration
		for _, sl := range slices {
			pass += sl.hi.at.Sub(sl.lo.at)
		}
		w.p50ms = float64(pass) / float64(time.Millisecond)
		w.p95ms = w.p50ms
		ws = append(ws, w)
		if cfg.trace {
			break // the traced run only needs each artifact timed once
		}
	}
	heap := liveHeapMB() // with the last pass's Lab — engines, datasets, predictions — still live
	runtime.KeepAlive(lab)

	out := tally(ws)
	if !cfg.trace {
		out.values = endToEndValues(report, m, ws, setups, heap, true)
		return out, nil
	}
	for i, name := range order {
		out.values["experiments.artifact_s."+name] = slices[i].samples[0].lat.Seconds()
	}
	return out, nil
}
