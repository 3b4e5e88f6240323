package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/fixapply"
	"weseer/internal/minidb"
	"weseer/internal/staticlint"
	"weseer/internal/workload"
)

// The fixgain experiment closes the fix-verification loop (Sec. VII,
// Figs. 10–11): diagnose an application, derive its ranked fix plan
// (internal/fixapply), then for every fix — individually and
// cumulatively in rank order — re-collect, re-analyze, and drive the
// concurrent-client workload, recording deadlock-abort counts, retry
// burn, and successful-API throughput before and after. Static gates
// (deterministic, parallelism-independent) prove each fix eliminates its
// targeted fingerprints; the load measurements show what that buys.
//
// -fixapps takes ";"-separated registry specs (gen specs contain commas).

var (
	fixAppsF = flag.String("fixapps",
		"broadleaf;gen:11,templates=6,modules=2,tables=3,rows=5,classes=f1:1+f2:1+f6:1+f8:1+f9:1+f10:1+f11:1",
		"';'-separated app specs for -exp fixgain")
	fixClientsF = flag.Int("fixclients", 8, "concurrent clients for the -exp fixgain workloads")
	fixDurF     = flag.Duration("fixdur", time.Second, "per-configuration workload duration for -exp fixgain")
	fixOutF     = flag.String("fixout", "BENCH_fixgain.json", "write the -exp fixgain report as versioned JSON to this file")
)

// workloadSeed seeds every workload run of fixgain and fig10/fig11.
const workloadSeed = 42

// fixgainAnalysis summarizes one serial re-analysis (deterministic).
type fixgainAnalysis struct {
	Deadlocks int            `json:"deadlocks"`
	Classes   map[string]int `json:"classes"`
	// TargetedEliminated / TargetedRemaining partition the applied fixes'
	// fingerprints by whether re-analysis still reports them.
	TargetedEliminated int `json:"targeted_eliminated"`
	TargetedRemaining  int `json:"targeted_remaining"`
	// RemainingTargeted lists the targeted fingerprints that survived
	// (static over-approximation residue; empty for generated corpora).
	RemainingTargeted []string `json:"remaining_targeted,omitempty"`
}

// fixgainStep is one fix configuration: the fixes applied and the
// re-analysis outcome.
type fixgainStep struct {
	Fix      string          `json:"fix"`
	Apply    []string        `json:"apply"`
	Analysis fixgainAnalysis `json:"analysis"`
}

// fixgainGates are the deterministic pass/fail criteria. Strict
// fingerprint elimination is gated on generated corpora (where the fix
// rewrites the exact planted shape); model apps additionally tolerate a
// conservative residue — cycles whose statements survive every fix and
// stay statically reportable (the seed's TestFixedAppShrinksReports
// documents this; the paper validates model-app fixes at runtime) — as
// long as every residual report is explained by an applied fix's target
// class or a known false-positive class.
type fixgainGates struct {
	// EachFixShrinks: every individual fix strictly shrinks the report set.
	EachFixShrinks bool `json:"each_fix_shrinks"`
	// CumulativeMonotone: each cumulative step reports no more deadlocks
	// than the previous one, and the final step fewer than baseline.
	CumulativeMonotone bool `json:"cumulative_monotone"`
	// StrictElimination: every individual and cumulative step eliminated
	// all of its applied fixes' fingerprints. Required for generated
	// corpora; recorded (not required) for cataloged model apps.
	StrictElimination bool `json:"strict_elimination"`
	// ResidualExplained: every deadlock remaining after all fixes is
	// classified to an applied fix's target or an "fp-"/"extra" class.
	ResidualExplained bool `json:"residual_explained"`
	TargetedTotal     int  `json:"targeted_total"`
	TargetedFinal     int  `json:"targeted_final_eliminated"`
	Pass              bool `json:"pass"`
}

// fixgainStatic is the deterministic half of one app's report:
// byte-identical across runs and parallelism levels.
type fixgainStatic struct {
	Baseline   fixgainAnalysis `json:"baseline"`
	Plan       []fixapply.Fix  `json:"plan"`
	Individual []fixgainStep   `json:"individual"`
	Cumulative []fixgainStep   `json:"cumulative"`
	Gates      fixgainGates    `json:"gates"`
}

// fixgainRun is one measured workload run.
type fixgainRun struct {
	APICalls   int64            `json:"api_calls"`
	Failures   int64            `json:"failures"`
	Retries    int64            `json:"retries"`
	Throughput float64          `json:"throughput"`
	Deadlocks  int64            `json:"deadlocks"`
	AbortsPS   float64          `json:"aborts_ps"`
	LockWaits  int64            `json:"lock_waits"`
	Victims    map[string]int64 `json:"deadlock_victims_by_table,omitempty"`
}

// fixgainLoadStep pairs a fix configuration with its measured run.
type fixgainLoadStep struct {
	Fix   string     `json:"fix"`
	Apply []string   `json:"apply"`
	Run   fixgainRun `json:"run"`
}

// fixgainLoad is the measured half of one app's report (wall-clock
// dependent; the determinism contract excludes it).
type fixgainLoad struct {
	Baseline   fixgainRun        `json:"baseline"`
	Individual []fixgainLoadStep `json:"individual"`
	Cumulative []fixgainLoadStep `json:"cumulative"`
	// SpeedupX is final-cumulative throughput over baseline throughput.
	SpeedupX float64 `json:"speedup_x"`
	// AbortGatePass: the fully fixed app aborted strictly fewer
	// transactions on deadlock than the unfixed baseline.
	AbortGatePass bool `json:"abort_gate_pass"`
}

// fixgainApp is one app's full report.
type fixgainAppReport struct {
	App    string        `json:"app"`
	Static fixgainStatic `json:"static"`
	Load   *fixgainLoad  `json:"load,omitempty"`
}

// fixgainEnv records wall-clock- and machine-dependent context; the
// determinism test zeroes it alongside the load sections.
type fixgainEnv struct {
	Parallelism int   `json:"parallelism"`
	NumCPU      int   `json:"num_cpu"`
	GOMAXPROCS  int   `json:"gomaxprocs"`
	WallMS      int64 `json:"wall_ms"`
}

// fixgainJSON is the versioned -fixout payload.
type fixgainJSON struct {
	Version    int                `json:"version"`
	Seed       int64              `json:"seed"`
	Clients    int                `json:"clients"`
	DurationMS int64              `json:"duration_ms"`
	Env        fixgainEnv         `json:"env"`
	Apps       []fixgainAppReport `json:"apps"`
}

// fixgainAnalyze serially re-collects and re-analyzes one app
// configuration and scores it against the applied fixes' fingerprints.
// plan == nil is the baseline, from which the plan is derived and
// returned, each fix ranked against the canonical lock order, which no
// later configuration needs.
func fixgainAnalyze(spec string, apply []string, workers int, plan []fixapply.Fix) (fixgainAnalysis, []fixapply.Fix, apps.App) {
	app, err := apps.Open(spec, apps.Options{Apply: apply})
	check(err)
	traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
	check(err)
	res := analyze(app.Schema(), traces, core.WithParallelism(workers))
	if plan == nil {
		plan = fixapply.Plan(app, res)
		co := staticlint.CanonicalizeTraces(traces, app.Schema())
		for i := range plan {
			plan[i].SuggestionRank = co.Rank(plan[i].APIs)
		}
	}

	out := fixgainAnalysis{Deadlocks: len(res.Deadlocks), Classes: map[string]int{}}
	remaining := map[string]bool{}
	for _, d := range res.Deadlocks {
		out.Classes[app.Classify(d)]++
		remaining[d.Fingerprint()] = true
	}
	applied := map[string]bool{}
	for _, a := range apply {
		applied[a] = true
	}
	for _, f := range plan {
		if !applied[f.Name] {
			continue
		}
		for _, fp := range f.Fingerprints {
			if remaining[fp] {
				out.TargetedRemaining++
				out.RemainingTargeted = append(out.RemainingTargeted, fp)
			} else {
				out.TargetedEliminated++
			}
		}
	}
	sort.Strings(out.RemainingTargeted)
	return out, plan, app
}

// fixgainMeasure opens a fresh app configuration on the contended
// database profile (every statement 100µs, lock waits time out after
// 100ms) and drives the workload harness against it.
func fixgainMeasure(spec string, apply []string, clients int, dur time.Duration) fixgainRun {
	db := minidb.Config{StatementDelay: 100 * time.Microsecond, LockWaitTimeout: 100 * time.Millisecond}
	app, err := apps.Open(spec, apps.Options{Apply: apply, DB: db})
	check(err)
	r := workload.Run(workload.Config{
		Clients: clients, Duration: dur, Seed: workloadSeed, RetryBackoff: time.Millisecond,
	}, app.DB(), app.Flow())
	return fixgainRun{
		APICalls: r.APICalls, Failures: r.Failures, Retries: r.Retries,
		Throughput: r.Throughput, Deadlocks: r.Deadlocks, AbortsPS: r.AbortsPS,
		LockWaits: r.LockWaits, Victims: app.DB().DeadlockVictimsByTable(),
	}
}

// fixgainStaticFor builds the deterministic half for one app: baseline
// diagnosis, fix plan, and serial re-analysis of every individual and
// cumulative fix configuration.
func fixgainStaticFor(spec string, workers int) (fixgainStatic, []fixapply.Fix) {
	baseline, plan, app := fixgainAnalyze(spec, nil, workers, nil)
	st := fixgainStatic{Baseline: baseline, Plan: plan}
	_, cataloged := app.(fixapply.Cataloged)

	var cum []string
	for _, f := range plan {
		ind, _, _ := fixgainAnalyze(spec, []string{f.Name}, workers, plan)
		st.Individual = append(st.Individual, fixgainStep{
			Fix: f.Name, Apply: []string{f.Name}, Analysis: ind,
		})
		cum = append(cum, f.Name)
		ca, _, _ := fixgainAnalyze(spec, append([]string(nil), cum...), workers, plan)
		st.Cumulative = append(st.Cumulative, fixgainStep{
			Fix: f.Name, Apply: append([]string(nil), cum...), Analysis: ca,
		})
	}

	g := fixgainGates{EachFixShrinks: true, CumulativeMonotone: true,
		StrictElimination: true, ResidualExplained: true}
	for _, f := range plan {
		g.TargetedTotal += len(f.Fingerprints)
	}
	for _, s := range st.Individual {
		if s.Analysis.Deadlocks >= baseline.Deadlocks {
			g.EachFixShrinks = false
		}
		if s.Analysis.TargetedRemaining > 0 {
			g.StrictElimination = false
		}
	}
	prev := baseline.Deadlocks
	for _, s := range st.Cumulative {
		if s.Analysis.Deadlocks > prev {
			g.CumulativeMonotone = false
		}
		prev = s.Analysis.Deadlocks
		if s.Analysis.TargetedRemaining > 0 {
			g.StrictElimination = false
		}
	}
	if n := len(st.Cumulative); n > 0 {
		final := st.Cumulative[n-1].Analysis
		if final.Deadlocks >= baseline.Deadlocks {
			g.CumulativeMonotone = false
		}
		g.TargetedFinal = final.TargetedEliminated
		targets := map[string]bool{}
		for _, f := range plan {
			for _, t := range f.Targets {
				targets[t] = true
			}
		}
		for cl := range final.Classes {
			if targets[cl] || cl == "extra" || strings.HasPrefix(cl, "fp-") {
				continue
			}
			g.ResidualExplained = false
		}
	}
	// Pass: generated corpora must eliminate every targeted fingerprint;
	// cataloged model apps must shrink monotonically and explain the
	// conservative residue.
	if cataloged {
		g.Pass = g.EachFixShrinks && g.CumulativeMonotone && g.ResidualExplained
	} else {
		g.Pass = g.EachFixShrinks && g.CumulativeMonotone && g.ResidualExplained && g.StrictElimination
	}
	st.Gates = g
	return st, plan
}

// fixgainLoadFor measures the workload before/after each fix (individual
// and cumulative) for one app.
func fixgainLoadFor(spec string, plan []fixapply.Fix, clients int, dur time.Duration) *fixgainLoad {
	ld := &fixgainLoad{Baseline: fixgainMeasure(spec, nil, clients, dur)}
	var cum []string
	for _, f := range plan {
		ld.Individual = append(ld.Individual, fixgainLoadStep{
			Fix: f.Name, Apply: []string{f.Name},
			Run: fixgainMeasure(spec, []string{f.Name}, clients, dur),
		})
		cum = append(cum, f.Name)
		ld.Cumulative = append(ld.Cumulative, fixgainLoadStep{
			Fix: f.Name, Apply: append([]string(nil), cum...),
			Run: fixgainMeasure(spec, append([]string(nil), cum...), clients, dur),
		})
	}
	if n := len(ld.Cumulative); n > 0 {
		final := ld.Cumulative[n-1].Run
		if ld.Baseline.Throughput > 0 {
			ld.SpeedupX = final.Throughput / ld.Baseline.Throughput
		}
		ld.AbortGatePass = ld.Baseline.Deadlocks > 0 && final.Deadlocks < ld.Baseline.Deadlocks
	}
	return ld
}

// buildFixgain runs the full experiment for the given specs. The Static
// sections of the result are deterministic: same specs, seed, and
// clients yield identical bytes at any workers value.
func buildFixgain(specs []string, clients int, dur time.Duration, workers int, withLoad bool) fixgainJSON {
	out := fixgainJSON{Version: 1, Seed: workloadSeed, Clients: clients, DurationMS: dur.Milliseconds(),
		Env: fixgainEnv{Parallelism: workers, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}}
	for _, spec := range specs {
		st, plan := fixgainStaticFor(spec, workers)
		rep := fixgainAppReport{App: spec, Static: st}
		if withLoad {
			rep.Load = fixgainLoadFor(spec, plan, clients, dur)
		}
		out.Apps = append(out.Apps, rep)
	}
	return out
}

func fixgainSpecs() []string {
	var out []string
	for _, s := range strings.Split(*fixAppsF, ";") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		fmt.Fprintln(os.Stderr, "weseer-bench: -fixapps is empty")
		os.Exit(2)
	}
	return out
}

func fixgain() {
	const workers = 4 // phase-3 workers; the static half is the same at any count
	header(fmt.Sprintf("Fixgain: fix-verification loop (%d clients, %s per run)", *fixClientsF, *fixDurF))
	t0 := time.Now()
	out := buildFixgain(fixgainSpecs(), *fixClientsF, *fixDurF, workers, true)
	out.Env.WallMS = time.Since(t0).Milliseconds()

	allPass := true
	for _, rep := range out.Apps {
		st, ld := rep.Static, rep.Load
		fmt.Printf("\napp %s: baseline %d deadlock report(s), %d fix(es) planned\n",
			rep.App, st.Baseline.Deadlocks, len(st.Plan))
		fmt.Print(fixapply.Render(st.Plan))
		if len(st.Plan) == 0 {
			fmt.Printf("fixgain %s: nothing to fix — skipping\n", rep.App)
			continue
		}
		fmt.Printf("%-6s %10s %10s %12s | %10s %9s %9s %9s\n",
			"fix", "reports", "cum-rep", "targeted", "api/s", "calls", "retries", "aborts")
		fmt.Printf("%-6s %10d %10s %12s | %10.1f %9d %9d %9d\n",
			"(none)", st.Baseline.Deadlocks, "-", "-",
			ld.Baseline.Throughput, ld.Baseline.APICalls, ld.Baseline.Retries, ld.Baseline.Deadlocks)
		for i := range st.Individual {
			ind, ca := st.Individual[i], st.Cumulative[i]
			li, lc := ld.Individual[i], ld.Cumulative[i]
			fmt.Printf("%-6s %10d %10d %9d/%-2d | %10.1f %9d %9d %9d  (cum: %.1f api/s, %d aborts)\n",
				ind.Fix, ind.Analysis.Deadlocks, ca.Analysis.Deadlocks,
				ind.Analysis.TargetedEliminated, ind.Analysis.TargetedEliminated+ind.Analysis.TargetedRemaining,
				li.Run.Throughput, li.Run.APICalls, li.Run.Retries, li.Run.Deadlocks,
				lc.Run.Throughput, lc.Run.Deadlocks)
		}
		g := st.Gates
		status := func(b bool) string {
			if b {
				return "ok"
			}
			return "FAIL"
		}
		fmt.Printf("static gates: each-fix-shrinks=%s cumulative-monotone=%s strict-elimination=%s residual-explained=%s (%d/%d targeted fingerprints eliminated when all fixes applied)\n",
			status(g.EachFixShrinks), status(g.CumulativeMonotone), status(g.StrictElimination),
			status(g.ResidualExplained), g.TargetedFinal, g.TargetedTotal)
		pass := g.Pass && ld.AbortGatePass
		fmt.Printf("fixgain %s: before=%d after=%d deadlock aborts, speedup=%.2fx, gates=%s\n",
			rep.App, ld.Baseline.Deadlocks, ld.Cumulative[len(ld.Cumulative)-1].Run.Deadlocks,
			ld.SpeedupX, map[bool]string{true: "PASS", false: "FAIL"}[pass])
		allPass = allPass && pass
	}

	if *fixOutF != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		check(err)
		check(os.WriteFile(*fixOutF, append(data, '\n'), 0o644))
		fmt.Printf("\nwrote %s (seed %d, %d app(s))\n", *fixOutF, out.Seed, len(out.Apps))
	}
	if !allPass {
		fmt.Println("ERROR: fixgain gates failed")
		os.Exit(1)
	}
}
