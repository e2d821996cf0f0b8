package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// -compare A.json B.json: A is the parent's runs, B the change's, both
// written by -out (at least ten runs a side, alternated, for a claim).
// For every workload and end-to-end metric it prints both medians, how
// much worse B reads, and a verdict against the metric's bound:
//
//	ok          B's median is not worse than A's by more than the bound
//	REGRESSION  it is, and the runs resolve the difference
//	unresolved  either side's own quartile spread exceeds the bound (or a
//	            side has fewer than minRuns runs to take a spread from), so
//	            the runs cannot tell — unless every run of B reads better
//	            than every run of A
//
// The exit status is non-zero on a regression or when B failed more
// operations than A.

func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("compare: %w", err)
	}
	defer f.Close()
	var recs []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("compare: %s: %w", path, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("compare: %s: %w", path, err)
	}
	return recs, nil
}

// side is one file's untraced runs of one workload.
type side struct {
	failed int
	values map[string][]float64
}

func sideOf(recs []runRecord, workload string) side {
	s := side{values: map[string][]float64{}}
	for _, r := range recs {
		if r.Workload != workload || r.Trace {
			continue
		}
		s.failed += r.Result.Failed
		for name, m := range r.Result.Metrics {
			s.values[name] = append(s.values[name], m.Value)
		}
	}
	return s
}

// relSpread is the distance between the first and third quartile as a
// share of the median.
func relSpread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// minRuns is the fewest runs a side needs before its quartiles mean
// anything.
const minRuns = 4

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegression verdict = "REGRESSION"
	verdictUnresolved verdict = "unresolved"
)

// judge compares one metric's runs. worse is B's median against A's as
// a share of A's, positive when B reads worse.
func judge(d metricDef, a, b []float64) (worse float64, v verdict) {
	ma, mb := medianOf(a).Median, medianOf(b).Median
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	if ma != 0 {
		worse = sign * (mb - ma) / ma
	}
	if len(a) < minRuns || len(b) < minRuns || relSpread(a) > d.Bound || relSpread(b) > d.Bound {
		sa, sb := medianOf(a), medianOf(b)
		allBetter := sb.Max < sa.Min
		if d.Better == "higher" {
			allBetter = sb.Min > sa.Max
		}
		if !allBetter {
			return worse, verdictUnresolved
		}
	}
	if worse > d.Bound {
		return worse, verdictRegression
	}
	return worse, verdictOK
}

func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	recsA, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	recsB, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-15s %-14s %13s %13s %8s %7s %9s %9s  %s\n",
		"workload", "metric", "A median", "B median", "worse", "bound", "A spread", "B spread", "verdict")
	for _, wl := range workloads {
		a, b := sideOf(recsA, wl.Name), sideOf(recsB, wl.Name)
		if len(a.values) == 0 || len(b.values) == 0 {
			continue
		}
		fmt.Fprintf(w, "%-15s %d runs of A, %d of B\n", wl.Name, len(a.values[endToEnd[0].Name]), len(b.values[endToEnd[0].Name]))
		if b.failed > a.failed {
			fmt.Fprintf(w, "%-15s failed operations rose from %d to %d\n", wl.Name, a.failed, b.failed)
			regressed = true
		}
		for _, d := range endToEnd {
			worse, v := judge(d, a.values[d.Name], b.values[d.Name])
			if v == verdictRegression {
				regressed = true
			}
			fmt.Fprintf(w, "%-15s %-14s %13.6g %13.6g %+7.1f%% %6.0f%% %8.1f%% %8.1f%%  %s\n",
				wl.Name, d.Name, medianOf(a.values[d.Name]).Median, medianOf(b.values[d.Name]).Median,
				100*worse, 100*d.Bound, 100*relSpread(a.values[d.Name]), 100*relSpread(b.values[d.Name]), v)
		}
	}
	return regressed, nil
}
