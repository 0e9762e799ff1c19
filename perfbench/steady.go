package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steadiness runs each named workload `rounds` times, each run in a fresh
// process, alternating the workload order between rounds, and prints per
// metric the median, quartiles and relative spread (Q3-Q1)/median. With
// one seed for every round it is also the determinism guard: all runs of
// a workload must report identical counts. varySeeds gives round i seed
// seed+i instead, the check a benchmark's bounds are held to.
func steadiness(names []string, spec benchSpec, rounds int, seed int64, seconds int, varySeeds bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	values := make(map[string]map[string][]float64) // workload → metric → runs
	units := make(map[string]string)
	countsOf := make(map[string][]counts)
	stealOf := make(map[string][]float64) // % of CPU time stolen, per run
	fmt.Printf("steadiness: %d rounds, seconds=%d, baseline seed %d, held-out seed %d, vary-seeds=%v\n",
		rounds, seconds, baselineSeed, heldOutSeed, varySeeds)
	for r := 0; r < rounds; r++ {
		order := append([]string(nil), names...)
		if r%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		s := seed
		if varySeeds {
			s += int64(r)
		}
		for _, w := range order {
			res, cs, steal, err := runChild(self, w, s, seconds)
			if err != nil {
				return fmt.Errorf("round %d %s: %w", r, w, err)
			}
			if values[w] == nil {
				values[w] = make(map[string][]float64)
			}
			for name, m := range res.Metrics {
				values[w][name] = append(values[w][name], m.Value)
				units[name] = m.Unit
			}
			countsOf[w] = append(countsOf[w], cs)
			stealOf[w] = append(stealOf[w], steal)
			fmt.Fprintf(os.Stderr, "round %d %-16s seed %d done\n", r, w, s)
		}
	}

	unsteady := false
	for _, w := range names {
		fmt.Printf("%s:\n", w)
		metrics := make([]string, 0, len(values[w]))
		for n := range values[w] {
			metrics = append(metrics, n)
		}
		sort.Strings(metrics)
		for _, n := range metrics {
			q1, q2, q3 := quartiles(values[w][n])
			spread := ratio(q3-q1, q2)
			note := ""
			if b, ok := bounds[n]; ok {
				note = fmt.Sprintf("bound %.3f", b)
				if n != "setup_s" && spread > b/3 {
					note += "  ABOVE A THIRD OF ITS BOUND"
					unsteady = true
				}
			}
			fmt.Printf("  %-20s median %12.6g %-5s q1 %12.6g q3 %12.6g spread %.4f  %s\n",
				n, q2, units[n], q1, q3, spread, note)
			fmt.Printf("  %-20s runs %.4g\n", "", values[w][n])
		}
		// Stolen CPU time slows every timing of a run alike; read the
		// spreads against it.
		fmt.Printf("  %-20s runs %.3g\n", "steal %", stealOf[w])
		if !varySeeds {
			for i, c := range countsOf[w][1:] {
				if c != countsOf[w][0] {
					return fmt.Errorf("%s: counts of run %d differ from run 0 under one seed: %+v vs %+v",
						w, i+1, c, countsOf[w][0])
				}
			}
			fmt.Printf("  counts identical over %d runs: %s\n", len(countsOf[w]), mustJSON(countsOf[w][0]))
		}
	}
	if unsteady {
		fmt.Println("steadiness: some spreads exceed a third of their bound")
	}
	return nil
}

// runChild runs one untraced workload in a fresh process and parses its
// final result line, its counts line and the CPU share the hypervisor
// stole during its timed pass.
func runChild(self, workload string, seed int64, seconds int) (*result, counts, float64, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, counts{}, 0, fmt.Errorf("%v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, counts{}, 0, fmt.Errorf("parsing result line: %w", err)
	}
	var cs counts
	steal := 0.0
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "machine: "); ok {
			fmt.Fprintf(os.Stderr, "%s seed %d %s\n", workload, seed, l)
			_, _ = fmt.Sscanf(rest, "%f%%", &steal) // stays 0 when unreadable
		}
		if rest, ok := strings.CutPrefix(l, "counts "); ok {
			if err := json.Unmarshal([]byte(rest), &cs); err != nil {
				return nil, counts{}, 0, fmt.Errorf("parsing counts line: %w", err)
			}
		}
	}
	if !res.Correct {
		return nil, counts{}, 0, fmt.Errorf("run reported incorrect answers:\n%s", out.String())
	}
	return &res, cs, steal, nil
}

// benchSpec is the part of BENCHMARK.json steadiness mode reads: the
// workloads the benchmark runs and the end-to-end bounds.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readSpec reads the benchmark file; a zero spec when it cannot be read.
func readSpec(path string) benchSpec {
	var spec benchSpec
	if b, err := os.ReadFile(path); err == nil {
		if json.Unmarshal(b, &spec) != nil {
			return benchSpec{}
		}
	}
	return spec
}
