// Broadleaf end-to-end walkthrough: WeSEER's full pipeline over the
// bundled Broadleaf model — collect the Table I unit-test traces under
// concolic execution, run the three-phase diagnosis, map the reports onto
// the Table II catalog (d1–d13), and then demonstrate at runtime that
// applying the fixes f1–f8 removes the deadlocks and restores throughput
// (the Fig. 10 result).
//
//	go run ./examples/broadleaf
package main

import (
	"context"
	"fmt"
	"time"

	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/apps/broadleaf"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/minidb"
	"weseer/internal/workload"
)

func main() {
	// --- Diagnosis on the unfixed application -------------------------
	app, err := apps.Open("broadleaf", apps.Options{})
	if err != nil {
		panic(err)
	}
	traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
	if err != nil {
		panic(err)
	}
	fmt.Println("collected traces:")
	for _, tr := range traces {
		fmt.Printf("  %-10s %2d statements, %3d path conditions\n",
			tr.API, tr.Stats.Statements, tr.Stats.PathConds)
	}

	res, err := core.NewAnalyzer(app.Schema()).AnalyzeContext(context.Background(), traces)
	if err != nil {
		panic(err)
	}
	fmt.Println("\n" + res.Stats.Render())

	found := map[string][]*core.Deadlock{}
	for _, d := range res.Deadlocks {
		id := app.Classify(d)
		found[id] = append(found[id], d)
	}
	fmt.Println("\nTable II (Broadleaf rows):")
	for _, exp := range broadleaf.Expectations() {
		mark := "MISSING"
		if n := len(found[exp.ID]); n > 0 {
			mark = fmt.Sprintf("found (%d reports)", n)
		}
		fmt.Printf("  %-4s %-42s %-12s %s\n", exp.ID, exp.Desc, mark, exp.Fix)
	}

	// Show one full report with triggering code, as a developer would
	// read it.
	if ds := found["d1"]; len(ds) > 0 {
		fmt.Println("\nexample report (d1):")
		fmt.Print(ds[0].Render())
	}

	// --- Runtime validation (Fig. 10 in miniature) --------------------
	fmt.Println("\nruntime impact, 32 clients, 300ms (Fig. 10 in miniature):")
	for _, cfg := range []struct {
		label string
		apply []string
	}{
		{"disable all", nil},
		{"enable all ", []string{"all"}},
	} {
		rt, err := apps.Open("broadleaf", apps.Options{Apply: cfg.apply, DB: minidb.Config{
			StatementDelay:  100 * time.Microsecond,
			LockWaitTimeout: 100 * time.Millisecond,
		}})
		if err != nil {
			panic(err)
		}
		w := workload.Run(workload.Config{
			Clients: 32, Duration: 300 * time.Millisecond,
			RetryBackoff: time.Millisecond, Seed: 1,
		}, rt.DB(), rt.(apps.Workloader).Flow())
		fmt.Printf("  %s  %7.0f API/s, %5d deadlocks, %7.0f aborts/s\n",
			cfg.label, w.Throughput, w.Deadlocks, w.AbortsPS)
	}
}
