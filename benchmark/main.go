// Command benchmark is the repository's one benchmark: four workloads,
// five end-to-end metrics and a traced run that attributes time to the
// internal/* layers from outside. See README.md in this directory.
//
//	benchmark -workload NAME -seed N -seconds S -trace 0|1   one run; the last stdout line is the result JSON
//	benchmark [-trace 1]                                     every workload, each in a fresh harness process
//	benchmark -selfcheck [-n 5]                              two interleaved sets of full runs; fails if they disagree
//	benchmark -spec                                          print BENCHMARK.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	runtime.GOMAXPROCS(procs())
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	workloadF := flag.String("workload", "", "run this workload in this process (default: all, one process each)")
	seed := flag.Int64("seed", 7, "seed of the generated corpora, the load clients and the synthetic events")
	seconds := flag.Float64("seconds", runSeconds, "how long the timed part of a run measures")
	trace := flag.Int("trace", 0, "1: the traced run, which reports the per-layer metrics")
	selfcheck := flag.Bool("selfcheck", false, "run two interleaved sets of -n full runs and compare their medians")
	n := flag.Int("n", 5, "runs per set for -selfcheck")
	spec := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	var err error
	switch {
	case *spec:
		var data []byte
		if data, err = benchmarkJSON(); err == nil {
			_, err = os.Stdout.Write(data)
		}
	case *selfcheck:
		err = selfCheck(*n, *seed, *seconds)
	case *workloadF == "":
		err = runAll(*seed, *seconds, *trace == 1)
	default:
		err = runOne(os.Stdout, &config{
			workload: *workloadF,
			seed:     *seed,
			duration: time.Duration(*seconds * float64(time.Second)),
			trace:    *trace == 1,
			size:     fullSize,
			scratch:  filepath.Join(".bench_build", "tmp"),
			outDir:   filepath.Join("benchmark", "out"),
			repoRoot: ".",
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne is the driver's contract: one workload, one result line, and a
// non-zero exit when an op failed its oracle.
func runOne(out io.Writer, cfg *config) error {
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	if err := res.print(out); err != nil {
		return err
	}
	if !res.correct {
		return fmt.Errorf("%s: %d of %d ops failed: %v", cfg.workload, res.failed, res.attempted, res.firstErr)
	}
	return nil
}
