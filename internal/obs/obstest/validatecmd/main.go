// Command validatecmd validates WeSEER telemetry artifacts from the
// command line; verify.sh's trace-smoke step uses it to check that a
// real run's exported trace and metrics parse.
//
// Usage:
//
//	go run ./internal/obs/obstest/validatecmd -trace run.trace.json \
//	    -metrics run.metrics.prom
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"weseer/internal/obs/obstest"
)

func main() {
	tracePath := flag.String("trace", "", "Chrome trace_event JSON file to validate")
	metricsPath := flag.String("metrics", "", "Prometheus text file to validate")
	flag.Parse()

	ok := false
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			fatal(err)
		}
		sum, err := obstest.ValidateChromeTrace(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		tids := make([]int, 0, len(sum.Threads))
		for tid := range sum.Threads {
			tids = append(tids, tid)
		}
		sort.Ints(tids)
		fmt.Printf("trace ok: %d events across %d threads %v\n", sum.Events, len(tids), tids)
		ok = true
	}
	if *metricsPath != "" {
		f, err := os.Open(*metricsPath)
		if err != nil {
			fatal(err)
		}
		samples, err := obstest.ValidatePrometheus(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("metrics ok: %d samples\n", len(samples))
		ok = true
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "usage: validatecmd [-trace f] [-metrics f]")
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "validatecmd:", err)
	os.Exit(1)
}
