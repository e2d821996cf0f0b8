// Command edgebench is the repository's benchmark: five workloads over
// the real, unpaced stack — three through the network front-end, one
// through the builder, one through the paper-table generators — each
// checked against pinned expected outputs, each reporting the same seven
// end-to-end metrics, plus a traced run per workload that dissects where
// the time went, layer by layer. See README.md beside this file.
//
// The acceptance driver runs, from the repository root,
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output. Without --workload every
// workload runs, untraced then traced, each in a process of its own.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runRecord is one line of an -out file: a run and how it was invoked.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Result   result  `json:"result"`
}

func main() {
	workload := flag.String("workload", "", "workload to run (default: all, each in its own process)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", runSeconds, "measuring time of one run")
	trace := flag.Int("trace", 0, "1 makes the traced run and reports the per-layer metrics")
	quick := flag.Bool("quick", false, "single set-up, short direct loops, tables reduced to the artifacts that render in milliseconds")
	root := flag.String("root", ".", "repository checkout")
	out := flag.String("out", "", "append each run's result to this file, one JSON object a line (input of -compare)")
	compare := flag.Bool("compare", false, "compare two -out files: edgebench -compare A.json B.json")
	pin := flag.String("pin", "", "regenerate the pinned expected outputs into this directory (bench/expected) and exit")
	printSpec := flag.Bool("print-spec", false, "print BENCHMARK.json and exit")
	flag.Parse()

	switch {
	case *printSpec:
		data, err := specJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
	case *pin != "":
		if err := pinAll(*pin); err != nil {
			fatal(err)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *workload == "":
		if err := runAll(*seed, *seconds, *quick, *root, *out); err != nil {
			fatal(err)
		}
	default:
		cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick, root: *root}
		if cfg.seconds <= 0 {
			fatal(fmt.Errorf("-seconds must be positive"))
		}
		res, err := runWorkload(cfg, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := appendRecord(*out, runRecord{cfg.workload, cfg.seed, cfg.seconds, cfg.trace, *res}); err != nil {
				fatal(err)
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "edgebench:", err)
	os.Exit(1)
}

func appendRecord(path string, rec runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("record: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	return nil
}

// runAll is the one command that prints every metric: each workload
// untraced, then traced, each in a fresh process so that heap and
// allocation figures are the workload's own.
func runAll(seed int64, seconds float64, quick bool, root, out string) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	for _, tr := range []int{0, 1} {
		for _, w := range workloads {
			args := []string{
				"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(tr), "-root", root,
			}
			if quick {
				args = append(args, "-quick")
			}
			if out != "" {
				args = append(args, "-out", out)
			}
			cmd := exec.Command(self, args...)
			var stdout strings.Builder
			cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (trace %d): %w", w.Name, tr, err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s (trace %d): last line is not a result: %w", w.Name, tr, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s (trace %d): %d of %d operations failed their check", w.Name, tr, res.Failed, res.Attempted)
			}
		}
	}
	return nil
}

// pinAll regenerates every file under expected/.
func pinAll(dir string) error {
	for _, name := range []string{wlServeClosed, wlServeRaw, wlServeOpenEDF} {
		a, err := pinServe(serveSpecs[name])
		if err != nil {
			return fmt.Errorf("pin %s: %w", name, err)
		}
		if err := writeExpected(dir, name, a); err != nil {
			return err
		}
	}
	zoo, err := pinZoo()
	if err != nil {
		return fmt.Errorf("pin %s: %w", wlBuildZoo, err)
	}
	return writeExpected(dir, wlBuildZoo, zoo)
}
