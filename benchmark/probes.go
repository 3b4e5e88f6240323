package main

// Layer probes: calls into layers that are not on a workload's user
// path, or that the user path reaches only through another layer. The
// traced run times them from outside, as sibling spans next to the ops
// (op id -1), so they never count toward an end-to-end metric.

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/fixapply"
	"weseer/internal/lockmodel"
	"weseer/internal/minidb"
	"weseer/internal/obs"
	"weseer/internal/replay"
	"weseer/internal/schema"
	"weseer/internal/smt"
	"weseer/internal/sqlast"
	"weseer/internal/staticlint"
	"weseer/internal/trace"
)

// conflictPairs is how many potentially conflicting statement pairs the
// lock-model and canonicalization probes build conditions for.
const conflictPairs = 200

// probeSpecs says which apps the diagnosis-side probes run on.
type probeSpecs struct {
	specs  []string
	vet    bool // the apps have Go source on disk
	replay bool
}

// diagProbes times the diagnosis-side layers on every app of p and adds
// the results (summed over the apps) to m.
func diagProbes(cfg *config, tr *tracer, p probeSpecs, m map[string]float64) error {
	probe := func(name string, fn func()) float64 { return tr.timed(name, -1, -1, fn) }
	ctx := context.Background()
	var serialS, parS, obsS, concolicS float64
	for _, spec := range p.specs {
		app, err := apps.Open(spec, apps.Options{})
		if err != nil {
			return err
		}
		scm := app.Schema()
		var traces []*trace.Trace
		concolicS += probe("appkit.collect", func() {
			traces, err = appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
		})
		if err != nil {
			return err
		}
		native, err := apps.Open(spec, apps.Options{})
		if err != nil {
			return err
		}
		m["concolic.collect_off_s"] += probe("concolic.collect_off", func() {
			_, err = appkit.Collect(native.UnitTests(), concolic.ModeOff)
		})
		if err != nil {
			return err
		}

		var stmts []*trace.Stmt
		for _, t := range traces {
			stmts = append(stmts, t.AllStmts()...)
		}
		m["sqlast.stmts"] += float64(len(stmts))
		m["sqlast.parse_s"] += probe("sqlast.parse", func() {
			for _, st := range stmts {
				if _, perr := sqlast.Parse(st.SQL); perr != nil {
					err = perr
				}
			}
		})
		if err != nil {
			return err
		}

		var payload []byte
		m["trace.encode_s"] += probe("trace.encode", func() { payload, err = json.Marshal(traces) })
		if err != nil {
			return err
		}
		m["trace.payload_bytes"] += float64(len(payload))
		m["trace.decode_s"] += probe("trace.decode", func() {
			var back []*trace.Trace
			err = json.Unmarshal(payload, &back)
		})
		if err != nil {
			return err
		}

		m["lockmodel.genlocks_s"] += probe("lockmodel.genlocks", func() {
			for _, st := range stmts {
				for _, table := range st.Parsed.Tables() {
					lockmodel.GenSharedLocks(st.Parsed, scm, table, st.Res != nil && st.Res.Empty)
				}
				if wt := st.Parsed.WriteTable(); wt != "" {
					lockmodel.GenExclusiveLocks(st.Parsed, scm, wt)
				}
			}
		})
		pairs := conflictingPairs(stmts, scm, conflictPairs)
		var conds []smt.Expr
		m["lockmodel.conflict_cond_s"] += probe("lockmodel.conflict_cond", func() {
			for _, pr := range pairs {
				conds = append(conds, edgeCond(pr[0], pr[1], scm))
			}
		})
		m["smt.canon_s"] += probe("smt.canon", func() {
			for _, c := range conds {
				smt.Canon(c)
			}
		})

		// The first in-process analysis fills the process-global interner;
		// discard it so the timed variants start from the same state.
		var res *core.Result
		analyze := func(name string, opts ...core.Option) float64 {
			if err != nil {
				return 0
			}
			return probe(name, func() { res, err = core.NewAnalyzer(scm, opts...).AnalyzeContext(ctx, traces) })
		}
		analyze("core.analyze_warm", core.WithParallelism(1))
		m["core.coarse_s"] += analyze("core.coarse", core.WithParallelism(1), core.WithCoarseOnly())
		parS += analyze("core.analyze_par", core.WithParallelism(procs()))
		obsS += analyze("core.analyze_observed", core.WithParallelism(1), core.WithObserver(obs.NewObserver()))
		m["staticlint.prescreen_analyze_s"] += analyze("staticlint.prescreen_analyze", core.WithParallelism(1), core.WithPrescreen())
		if err != nil {
			return err
		}
		m["core.prescreen_saved"] += float64(res.Stats.PrescreenSaved)
		serialS += analyze("core.analyze_serial", core.WithParallelism(1))
		if err != nil {
			return err
		}

		m["fixapply.plan_s"] += probe("fixapply.plan", func() { fixapply.Plan(app, res) })
		if src, ok := app.(apps.Sourcer); ok && p.vet {
			var findings []staticlint.Finding
			m["staticlint.vet_s"] += probe("staticlint.vet", func() {
				findings, err = staticlint.VetDir(filepath.Join(cfg.repoRoot, src.SourceDir()), scm, staticlint.DefaultVetOptions())
			})
			if err != nil {
				return err
			}
			m["staticlint.findings"] += float64(len(findings))
		}
		if p.replay {
			sample := *res
			sample.Deadlocks = nil
			step := max(len(res.Deadlocks)/cfg.size.replaySample, 1)
			for i := 0; i < len(res.Deadlocks); i += step {
				sample.Deadlocks = append(sample.Deadlocks, res.Deadlocks[i])
			}
			var outcomes []replay.Outcome
			m["replay.reproduce_s"] += probe("replay.reproduce", func() {
				outcomes = replay.ReproduceReport(&sample, func() (*minidb.DB, []appkit.UnitTest) {
					// A replay whose holding statements block each other
					// waits out the lock timeout; the default is 5 s.
					fresh, ferr := apps.Open(spec, apps.Options{DB: minidb.Config{LockWaitTimeout: 100 * time.Millisecond}})
					if ferr != nil {
						err = ferr
						return app.DB(), nil
					}
					return fresh.DB(), fresh.UnitTests()
				})
			})
			if err != nil {
				return err
			}
			for _, o := range outcomes {
				if o.Status == replay.Deadlocked {
					m["replay.confirmed"]++
				}
			}
			m["replay.attempted"] += float64(len(outcomes))
		}
	}
	m["core.analyze_par_s"] = parS
	m["core.parallel_speedup"] = ratio(serialS, parS)
	m["obs.observer_overhead_ratio"] = ratio(obsS, serialS)
	m["concolic.overhead_ratio"] = ratio(concolicS, m["concolic.collect_off_s"])
	if n := m["replay.attempted"]; n > 0 {
		m["replay.confirmed_share"] = m["replay.confirmed"] / n
	}
	delete(m, "replay.confirmed")
	delete(m, "replay.attempted")
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// conflictingPairs returns the first n statement pairs, in trace order,
// whose modeled locks can collide.
func conflictingPairs(stmts []*trace.Stmt, scm *schema.Schema, n int) [][2]*trace.Stmt {
	var out [][2]*trace.Stmt
	for i, a := range stmts {
		if !a.IsWrite() {
			continue
		}
		for _, b := range stmts[i:] {
			if lockmodel.PotentialConflict(a, b, scm, false) {
				if out = append(out, [2]*trace.Stmt{a, b}); len(out) == n {
					return out
				}
			}
		}
	}
	return out
}

// edgeCond builds the conflict condition of one statement pair the way
// core does for a cycle's C-edge: both writer orientations, disjoined.
func edgeCond(x, y *trace.Stmt, scm *schema.Schema) smt.Expr {
	var alts []smt.Expr
	for _, o := range [2][2]*trace.Stmt{{x, y}, {y, x}} {
		w, r := o[0], o[1]
		wt := w.Parsed.WriteTable()
		if wt == "" {
			continue
		}
		for _, t := range r.Parsed.Tables() {
			if t == wt {
				alts = append(alts, lockmodel.GenConflictCond(w, r, scm, wt, "r1.", lockmodel.NewNamer("rng.r1."), false))
				break
			}
		}
	}
	return smt.Or(alts...)
}

// noiseProbe times a fixed single-threaded spin loop: the same work
// taking longer means something else is using the machine.
func noiseProbe() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 60_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(t0).Seconds()
	if x == 0 { // keeps the loop's result live
		fmt.Print()
	}
	return d
}
