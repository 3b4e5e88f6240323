// Command weseer-bench regenerates every table and figure of the paper's
// evaluation (Sec. VII) against the bundled model applications, plus the
// fix-verification loop. Run -exp list for the experiment table; -exp all
// runs everything in sequence.
//
// Absolute numbers depend on this machine; the paper's claims are about
// shape (who wins, by what order of magnitude, where the crossover sits).
// Performance of the pipeline itself — end to end and per layer — is
// measured by the repository's one benchmark, `bash benchmark/run.sh`.
//
// -cpuprofile FILE and -memprofile FILE capture pprof profiles of
// whatever experiments run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/apps/broadleaf"
	"weseer/internal/apps/shopizer"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/fixapply"
	"weseer/internal/schema"
	"weseer/internal/trace"
)

var (
	duration   = flag.Duration("duration", 500*time.Millisecond, "per-configuration workload duration (fig10/fig11)")
	cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	clients    = []int{8, 64, 128}
)

func init() {
	flag.Func("clients", "comma-separated client counts for fig10/fig11 (default 8,64,128)", func(s string) (err error) {
		clients, err = parseClients(s)
		return err
	})
}

// experiment is one entry in the experiment table.
type experiment struct {
	name string // -exp selector
	desc string // one line for -exp list and the usage header
	run  func()
}

// experiments is the table, in -exp all (and listing) order.
var experiments = []experiment{
	{"table1", "Table I: target APIs and invocation counts", table1},
	{"table2", "Table II: the 18 deadlocks and their fixes; Sec. VII-B: the coarse baseline", table2},
	{"table3", "Table III: unit-test runtime per engine mode", table3},
	{"fig10", "Fig. 10: Broadleaf throughput across fix ablations", func() {
		ablation("Fig. 10: performance impact of Broadleaf's deadlocks (API/s)", "broadleaf",
			"enable all sustains throughput with ~0 aborts/s; disable all\n"+
				"collapses under deadlock storms (the paper reports 39.5x and 904->0 aborts/s)")
	}},
	{"fig11", "Fig. 11: Shopizer throughput across fix ablations", func() {
		ablation("Fig. 11: performance impact of Shopizer's deadlocks (API/s)", "shopizer",
			"fixes win at high concurrency (the paper reports up to 4.5x)")
	}},
	{"pruning", "Sec. IV: path-condition pruning (656K -> 2.7K analog)", pruning},
	{"fixgain", "fix-verification loop: apply ranked fixes, replay under load, measure the win", fixgain},
}

func listExperiments(w *os.File) {
	fmt.Fprintln(w, "experiments (-exp NAME, or -exp all):")
	for _, e := range experiments {
		fmt.Fprintf(w, "  %-10s %s\n", e.name, e.desc)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: weseer-bench [flags] -exp NAME|list|all")
	fmt.Fprintln(os.Stderr)
	listExperiments(os.Stderr)
	fmt.Fprintln(os.Stderr)
	fmt.Fprintln(os.Stderr, "flags:")
	flag.PrintDefaults()
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (see -exp list)")
	flag.Usage = usage
	flag.Parse()
	if err := checkLoads(); err != nil {
		fmt.Fprintf(os.Stderr, "weseer-bench: %v\n\n", err)
		usage()
		os.Exit(2)
	}
	if *exp == "list" {
		listExperiments(os.Stdout)
		return
	}
	var selected []experiment
	if *exp == "all" {
		selected = experiments
	} else {
		for _, e := range experiments {
			if e.name == *exp {
				selected = append(selected, e)
			}
		}
		if len(selected) == 0 {
			fmt.Fprintf(os.Stderr, "weseer-bench: unknown experiment %q\n\n", *exp)
			usage()
			os.Exit(2)
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			check(f.Close())
		}()
	}
	for _, e := range selected {
		e.run()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		check(err)
		runtime.GC()
		check(pprof.WriteHeapProfile(f))
		check(f.Close())
	}
}

// openApp resolves a workload through the application registry; bench
// experiments share the model apps' default configuration.
func openApp(spec string) apps.App {
	app, err := apps.Open(spec, apps.Options{})
	check(err)
	return app
}

// analyze runs the full diagnosis over traces.
func analyze(scm *schema.Schema, traces []*trace.Trace, opts ...core.Option) *core.Result {
	res, err := core.NewAnalyzer(scm, opts...).AnalyzeContext(context.Background(), traces)
	check(err)
	return res
}

// parseClients parses -clients, a comma-separated list of positive client
// counts; a malformed entry fails the flag (exit 2).
func parseClients(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("%q is not a positive client count", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// checkLoads rejects a load that would run nothing: a non-positive
// -duration, -fixdur or -fixclients measures zero calls, which fig10/11
// print as a table of zeros and fixgain blames on its gates.
func checkLoads() error {
	switch {
	case *duration <= 0:
		return fmt.Errorf("-duration %v is not a positive duration", *duration)
	case *fixDurF <= 0:
		return fmt.Errorf("-fixdur %v is not a positive duration", *fixDurF)
	case *fixClientsF <= 0:
		return fmt.Errorf("-fixclients %d is not a positive client count", *fixClientsF)
	}
	return nil
}

func header(title string) {
	fmt.Printf("\n================ %s ================\n", title)
}

// ---------------------------------------------------------------------------
// Table I

func table1() {
	header("Table I: target APIs")
	fmt.Printf("%-9s %-38s %-10s %-10s\n", "API", "Input description", "Broadleaf", "Shopizer")
	bl, sh := openApp("broadleaf").UnitTests(), openApp("shopizer").UnitTests()
	// invocations counts an app's unit tests of one API: Add1–Add3 are Add.
	invocations := func(tests []appkit.UnitTest, api string) string {
		n := 0
		for _, ut := range tests {
			if strings.TrimRight(ut.Name, "0123456789") == api {
				n++
			}
		}
		if n == 0 {
			return "-"
		}
		return strconv.Itoa(n)
	}
	for _, r := range []struct{ api, input string }{
		{"Register", "username, email, password, confirm"},
		{"Add", "userId, productId"},
		{"Ship", "userId, shipment address, phone"},
		{"Payment", "userId, payment address, phone"},
		{"Checkout", "userId"},
	} {
		fmt.Printf("%-9s %-38s %-10s %-10s\n", r.api, r.input, invocations(bl, r.api), invocations(sh, r.api))
	}
	fmt.Printf("\nunit tests bundled: Broadleaf %d, Shopizer %d (Add invoked three times; "+
		"each invocation runs a different code path)\n", len(bl), len(sh))
}

// ---------------------------------------------------------------------------
// Table II

func table2() {
	header("Table II: deadlocks found by WeSEER")
	blApp := openApp("broadleaf")
	shApp := openApp("shopizer")

	blTraces, err := appkit.Collect(blApp.UnitTests(), concolic.ModeConcolic)
	check(err)
	shTraces, err := appkit.Collect(shApp.UnitTests(), concolic.ModeConcolic)
	check(err)

	blRes := analyze(blApp.Schema(), blTraces)
	shRes := analyze(shApp.Schema(), shTraces)

	blFound := map[string]int{}
	for _, d := range blRes.Deadlocks {
		blFound[blApp.Classify(d)]++
	}
	shFound := map[string]int{}
	for _, d := range shRes.Deadlocks {
		shFound[shApp.Classify(d)]++
	}

	fmt.Printf("%-9s %-4s %-38s %-50s %s\n", "App", "Id", "Deadlock APIs", "Fix", "Found")
	catalog := 0
	found := 0
	for _, exp := range append(broadleaf.Expectations(), shopizer.Expectations()...) {
		catalog++
		n := blFound[exp.ID] + shFound[exp.ID]
		status := "NO"
		if n > 0 {
			status = fmt.Sprintf("yes (%d reports)", n)
			found++
		}
		fmt.Printf("%-9s %-4s %-38s %-50s %s\n", exp.Apps, exp.ID, exp.APIs, exp.Fix, status)
	}
	fmt.Printf("\n%d of %d cataloged deadlocks reported (paper: 18/18)\n", found, catalog)
	fmt.Printf("additional reports: %d app-lock-protected false positives (Sec. V-D), %d extra\n",
		blFound["fp-checkout-applock"], blFound["extra"]+shFound["extra"]+blFound[""]+shFound[""])
	fmt.Println("\nBroadleaf:", blRes.Stats.Render())
	fmt.Println("Shopizer: ", shRes.Stats.Render())

	// Sec. VII-B: the coarse (STEPDAD/REDACT-style) baseline reports every
	// coarse cycle; the same enumeration counts them with or without SMT.
	fmt.Printf("\nSec. VII-B coarse baseline: %d coarse hold-and-wait cycles (paper: 18,384) vs %d confirmed reports\n",
		blRes.Stats.CoarseCycles+shRes.Stats.CoarseCycles, len(blRes.Deadlocks)+len(shRes.Deadlocks))
}

// ---------------------------------------------------------------------------
// Table III

func table3() {
	header("Table III: unit-test execution time per engine mode (microseconds)")
	modes := []struct {
		label string
		mode  concolic.Mode
	}{
		{"Original", concolic.ModeOff},
		{"Interpretive", concolic.ModeInterpret},
		{"Interpretive+Concolic", concolic.ModeConcolic},
	}
	var names []string
	for _, ut := range openApp("broadleaf").UnitTests() {
		names = append(names, ut.Name)
	}
	results := make(map[string][]float64)
	const reps = 30
	for _, m := range modes {
		samples := make([][]float64, len(names))
		for r := 0; r < reps+1; r++ {
			app := openApp("broadleaf")
			for i, ut := range app.UnitTests() {
				e := concolic.New(m.mode)
				e.StartConcolic(ut.Name)
				start := time.Now()
				check(ut.Run(e))
				el := float64(time.Since(start).Microseconds())
				e.EndConcolic()
				if r > 0 { // discard the warmup repetition
					samples[i] = append(samples[i], el)
				}
			}
		}
		med := make([]float64, len(names))
		for i, ss := range samples {
			sort.Float64s(ss)
			med[i] = ss[len(ss)/2]
		}
		results[m.label] = med
	}
	fmt.Printf("%-22s", "JDK Version")
	for _, n := range names {
		fmt.Printf(" %9s", n)
	}
	fmt.Println()
	for _, m := range modes {
		fmt.Printf("%-22s", m.label)
		for i := range names {
			fmt.Printf(" %9.0f", results[m.label][i])
		}
		fmt.Println()
	}
	fmt.Println("\nexpected shape: Original < Interpretive < Interpretive+Concolic for every API")
}

// ---------------------------------------------------------------------------
// Fig. 10 / Fig. 11

// ablation drives the concurrent-client workload over the fix
// configurations of one registry app — every fix on, every fix off, then
// each catalog fix off in turn — at every -clients count.
func ablation(title, spec, expect string) {
	header(title)
	fixes := appkit.FixIDs(openApp(spec).(fixapply.Cataloged).Catalog())
	labels, applies := []string{"enable all", "disable all"}, [][]string{{"all"}, nil}
	for _, f := range fixes {
		labels = append(labels, "disable "+f)
		applies = append(applies, slices.DeleteFunc(slices.Clone(fixes), func(n string) bool { return n == f }))
	}
	fmt.Printf("%-14s", "config")
	for _, c := range clients {
		fmt.Printf(" %8d cl  (aborts/s)", c)
	}
	fmt.Println()
	for i, label := range labels {
		fmt.Printf("%-14s", label)
		for _, c := range clients {
			res := fixgainMeasure(spec, applies[i], c, *duration)
			fmt.Printf(" %11.0f  (%8.0f)", res.Throughput, res.AbortsPS)
		}
		fmt.Println()
	}
	fmt.Println("\nexpected shape: " + expect)
}

// ---------------------------------------------------------------------------
// Pruning (Sec. IV)

func pruning() {
	header("Sec. IV: path-condition pruning (Broadleaf unit tests)")
	pruned, err := appkit.Collect(openApp("broadleaf").UnitTests(), concolic.ModeConcolic)
	check(err)
	full, err := appkit.Collect(openApp("broadleaf").UnitTests(),
		concolic.ModeConcolic, concolic.WithoutPruning())
	check(err)
	fmt.Printf("%-10s %14s %14s %9s\n", "API", "no pruning", "with pruning", "ratio")
	for i := range pruned {
		with := pruned[i].Stats.PathConds
		without := full[i].Stats.PathConds
		ratio := float64(without) / float64(max(1, with))
		fmt.Printf("%-10s %14d %14d %8.0fx\n", pruned[i].API, without, with, ratio)
	}
	fmt.Println("\nexpected shape: pruning removes orders of magnitude of conditions")
	fmt.Println("(the paper reports 656K -> 2.7K for Broadleaf's Ship API)")
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
