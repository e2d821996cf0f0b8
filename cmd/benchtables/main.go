// Command benchtables regenerates the paper's evaluation artifacts —
// every table (I-XVIII) and figure (3-4) — on the simulator and prints
// them in the paper's layout, and renders the extension studies.
//
// Usage:
//
//	benchtables -all            # everything (default)
//	benchtables -table 8        # one table
//	benchtables -table 1        # the platforms, deviceQuery-style
//	benchtables -figure 3       # one figure
//	benchtables -ext            # extension experiments (precision/batch/energy/DVFS/detection/thermal)
//	benchtables -faulttol       # serving under injected faults (results/faulttol.txt)
//	benchtables -chaos          # self-healing replica fleet soak (results/chaos.txt)
//	benchtables -csv DIR        # also export figure data as CSV
//	benchtables -full           # paper-scale dataset sizes (slower)
package main

import (
	"flag"
	"fmt"
	"os"

	"edgeinfer/internal/atomicfile"
	"edgeinfer/internal/experiments"
)

func main() {
	tableN := flag.Int("table", 0, "render one table (1-18)")
	ext := flag.Bool("ext", false, "render the extension experiments (precision study)")
	faulttol := flag.Bool("faulttol", false, "render the fault-tolerance and DVFS-throttling sweeps")
	chaos := flag.Bool("chaos", false, "render the replica-fleet chaos soak and its supervisor transcripts")
	figureN := flag.Int("figure", 0, "render one figure (3 or 4)")
	all := flag.Bool("all", false, "render every table and figure")
	full := flag.Bool("full", false, "paper-scale dataset sizes (slower)")
	csvDir := flag.String("csv", "", "also write figure data as CSV files into this directory")
	flag.Parse()

	opts := experiments.Default()
	if *full {
		opts = experiments.Full()
	}
	lab := experiments.NewLab(opts)

	tables := map[int]func() string{
		1: lab.RenderTable1, 2: lab.RenderTable2, 3: lab.RenderTable3,
		4: lab.RenderTable4, 5: lab.RenderTable5, 6: lab.RenderTable6,
		7: lab.RenderTable7, 8: lab.RenderTable8, 9: lab.RenderTable9,
		10: lab.RenderTable10, 11: lab.RenderTable11, 12: lab.RenderTable12,
		13: lab.RenderTable13, 14: lab.RenderTable14, 15: lab.RenderTable15,
		16: lab.RenderTable16, 17: lab.RenderTable17, 18: lab.RenderTable18,
	}
	figures := map[int]func() string{3: lab.RenderFigure3, 4: lab.RenderFigure4}

	switch {
	case *ext:
		precision, err := lab.RenderPrecisionStudy()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		fmt.Println(precision)
		batch, err := lab.RenderBatchSweep()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		fmt.Println(batch)
		fmt.Println(lab.RenderEnergyStudy())
		fmt.Println(lab.RenderClockSweep())
		fmt.Println(lab.RenderDetectionStudy())
		fmt.Println(lab.RenderThermalStudy())
		cacheStudy, err := lab.RenderCacheStudy()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		fmt.Println(cacheStudy)
		transfer, err := lab.RenderLatPredTransfer()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		fmt.Println(transfer)
	case *faulttol:
		faults, err := lab.RenderFaultToleranceFor()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		fmt.Println(faults)
		throttle, err := lab.RenderThrottleSweep()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		fmt.Println(throttle)
	case *chaos:
		soak, err := lab.RenderChaosSoakFor("resnet18", 60)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		fmt.Println(soak)
	case *tableN != 0:
		fn, ok := tables[*tableN]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchtables: no table %d\n", *tableN)
			os.Exit(2)
		}
		fmt.Println(fn())
	case *figureN != 0:
		fn, ok := figures[*figureN]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchtables: no figure %d\n", *figureN)
			os.Exit(2)
		}
		fmt.Println(fn())
	default:
		_ = all
		if *csvDir != "" {
			writeCSVs(lab, *csvDir)
		}
		for i := 1; i <= 18; i++ {
			fmt.Println(tables[i]())
			if i == 7 {
				fmt.Println(figures[3]())
				fmt.Println(figures[4]())
			}
		}
	}
}

// writeCSVs exports the figures' data series for external plotting.
func writeCSVs(lab *experiments.Lab, dir string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
	for name, series := range map[string][]experiments.FigureSeries{
		"figure3.csv": lab.Figure3(),
		"figure4.csv": lab.Figure4(),
	} {
		path := dir + "/" + name
		if err := atomicfile.WriteFile(path, []byte(experiments.FigureCSV(series)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", path)
	}
}
