package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// driverResult is the last stdout line of one run.
type driverResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runFresh runs one workload in a fresh harness process, the way the
// driver does, and returns its report and parsed result line.
func runFresh(workload string, seed int64, seconds float64, trace bool) (string, driverResult, error) {
	var res driverResult
	self, err := os.Executable()
	if err != nil {
		return "", res, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", t)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	report := strings.TrimRight(stdout.String(), "\n")
	last := report[strings.LastIndexByte(report, '\n')+1:]
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return report, res, fmt.Errorf("%s: %w", workload, runErr)
		}
		return report, res, fmt.Errorf("%s: result line: %w", workload, err)
	}
	if runErr != nil || !res.Correct {
		return report, res, fmt.Errorf("%s: %d of %d ops failed", workload, res.Failed, res.Attempted)
	}
	return report, res, nil
}

// runAll runs every workload once, each in its own process, and prints
// their reports; with trace it then makes the traced runs too.
func runAll(seed int64, seconds float64, trace bool) error {
	var failed []string
	modes := []bool{false}
	if trace {
		modes = append(modes, true)
	}
	for _, traced := range modes {
		for _, w := range workloadDefs {
			report, _, err := runFresh(w.Name, seed, seconds, traced)
			fmt.Println(report)
			fmt.Println()
			if err != nil {
				failed = append(failed, err.Error())
			}
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%s", strings.Join(failed, "; "))
	}
	return nil
}

// selfCheck measures how repeatable the benchmark is on this machine:
// two sets of n full runs of the same tree, interleaved A/B/A/B, run i
// of either set with seed+i. It prints, as Markdown, each metric's two
// set medians, its quartiles over a set, the spread (interquartile range
// over median) and the gap between the sets, and fails when a spread or
// a gap exceeds the metric's bound — the driver's own acceptance rule.
func selfCheck(n int, seed int64, seconds float64) error {
	if n < 2 {
		return fmt.Errorf("-n must be at least 2")
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	raw := map[key][]float64{} // both sets, before the speed adjustment
	asMeasured := regexp.MustCompile(`(?m)^\s+(\S+)\s.*as measured (\S+)$`)
	for i := 0; i < n; i++ {
		for set := range sets {
			for _, w := range workloadDefs {
				report, res, err := runFresh(w.Name, seed+int64(i), seconds, false)
				if err != nil {
					return err
				}
				for _, m := range asMeasured.FindAllStringSubmatch(report, -1) {
					if v, err := strconv.ParseFloat(m[2], 64); err == nil {
						raw[key{w.Name, m[1]}] = append(raw[key{w.Name, m[1]}], v)
					}
				}
				for _, m := range endToEnd {
					k := key{w.Name, m.Name}
					sets[set][k] = append(sets[set][k], res.Metrics[m.Name].Value)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: run %d/%d set %c %s\n", i+1, n, 'A'+set, report[strings.LastIndexByte(report, '\n')+1:])
			}
		}
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "# Calibration: two interleaved sets of %d runs, seeds %d..%d, %g s each\n\n", n, seed, seed+int64(n)-1, seconds)
	fmt.Fprintf(out, "nproc %d, GOMAXPROCS %d, %s, commit %s, load1 %s at the end.\n\n",
		runtime.NumCPU(), procs(), runtime.Version(), commit(), loadAverage())
	fmt.Fprintln(out, "Values are at the nominal machine speed (ref.go); the last column is the spread of the same runs' values as measured, all of both sets.")
	fmt.Fprintln(out)
	fmt.Fprintln(out, "| workload | metric | unit | median A | q1..q3 A | spread A | median B | q1..q3 B | spread B | B worse by | bound | verdict | spread as measured |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|---|---|---|---|---|---|---|")
	bad := 0
	for _, w := range workloadDefs {
		for _, m := range endToEnd {
			a, b := sets[0][key{w.Name, m.Name}], sets[1][key{w.Name, m.Name}]
			gap := worseBy(m, median(a), median(b))
			verdict := "ok"
			// The driver exempts setup_s from the spread rule, not from
			// the gap rule.
			if regressed(m, median(a), median(b)) ||
				(m.Name != "setup_s" && max(spread(a), spread(b)) > m.Bound) {
				verdict = "FAIL"
				bad++
			}
			cell := func(xs []float64) string {
				q1, q3 := quartiles(xs)
				return fmt.Sprintf("%.5g | %.5g..%.5g | %s", median(xs), q1, q3, pct(spread(xs)))
			}
			fmt.Fprintf(out, "| %s | %s | %s | %s | %s | %s | %s | %s | %s |\n",
				w.Name, m.Name, m.Unit, cell(a), cell(b), pct(gap), pct(m.Bound), verdict, pct(spread(raw[key{w.Name, m.Name}])))
		}
	}
	if bad > 0 {
		out.Flush()
		return fmt.Errorf("selfcheck: %d metric(s) not repeatable within their bound", bad)
	}
	return nil
}
