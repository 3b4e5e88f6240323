// Shopizer end-to-end walkthrough: diagnosis of the five Product-table
// deadlocks (d14–d18) and the Fig. 11 runtime comparison. All Shopizer
// deadlocks come from read-modify-write and inconsistent-order accesses
// to shared product rows; the fixes are application-level locks (f9) and
// consistent lock ordering (f10/f11).
//
//	go run ./examples/shopizer
package main

import (
	"context"
	"fmt"
	"time"

	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/apps/shopizer"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/minidb"
	"weseer/internal/workload"
)

func main() {
	app, err := apps.Open("shopizer", apps.Options{})
	if err != nil {
		panic(err)
	}
	traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
	if err != nil {
		panic(err)
	}
	res, err := core.NewAnalyzer(app.Schema()).AnalyzeContext(context.Background(), traces)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Stats.Render())

	found := map[string]int{}
	for _, d := range res.Deadlocks {
		found[app.Classify(d)]++
	}
	fmt.Println("\nTable II (Shopizer rows — all on the Product table):")
	for _, exp := range shopizer.Expectations() {
		mark := "MISSING"
		if n := found[exp.ID]; n > 0 {
			mark = fmt.Sprintf("found (%d reports)", n)
		}
		fmt.Printf("  %-4s %-36s %-12s %s\n", exp.ID, exp.Desc, mark, exp.Fix)
	}

	fmt.Println("\nruntime impact, 32 clients, 300ms (Fig. 11 in miniature):")
	for _, cfg := range []struct {
		label string
		apply []string
	}{
		{"disable all", nil},
		{"enable all ", []string{"all"}},
	} {
		rt, err := apps.Open("shopizer", apps.Options{Apply: cfg.apply, DB: minidb.Config{
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
