// Command perfbench is the repository's serving benchmark. For one named
// workload it generates the data graph and a fixed op sequence from the
// seed, hosts the deployment in-process, and drives it through the client
// SDK over loopback HTTP with one client in a closed loop. It checks every
// answer against core.MatchWith and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as the last line of standard output.
//
//	bash perfbench/run.sh --workload plain-adhoc --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --steady 5 --seed 1            # steadiness report
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload name: "+fmt.Sprint(workloadNames)+"; in steadiness mode, limits it to one")
		seed      = flag.Int64("seed", baselineSeed, "workload seed: the data graph and op sequence derive from it")
		seconds   = flag.Int("seconds", 30, "run length: sets the op counts, so the timed pass lasts about this long")
		traced    = flag.Int("trace", 0, "0: end-to-end metrics; 1: also a traced pass, per-layer metrics")
		outDir    = flag.String("out", ".bench_build/perfbench", "directory for the data file and span dumps")
		steady    = flag.Int("steady", 0, "steadiness mode: run each benchmark workload this many times")
		varySeeds = flag.Bool("vary-seeds", false, "steadiness mode: round i uses seed+i instead of one seed")
	)
	flag.Parse()
	if *steady > 0 {
		// By default the workloads BENCHMARK.json lists, else all.
		spec := readSpec("BENCHMARK.json")
		names := workloadNames
		if len(spec.Workloads) > 0 {
			names = nil
			for _, w := range spec.Workloads {
				names = append(names, w.Name)
			}
		}
		if *workload != "" {
			names = []string{*workload}
		}
		if err := steadiness(names, spec, *steady, *seed, *seconds, *varySeeds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		os.Exit(2)
	}
	res, err := run(config{workload: *workload, seed: *seed, seconds: *seconds,
		traced: *traced == 1, outDir: *outDir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}
